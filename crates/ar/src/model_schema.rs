//! The AR model's view of a database: ordered model columns with encodings,
//! and the translation of queries into per-column progressive-sampling rules.

use crate::encoding::ColumnEncoding;
use crate::error::ArError;
use sam_query::{CodeSet, Query};
use sam_storage::{DataType, DatabaseSchema, DatabaseStats, Domain, JoinGraph};
use std::collections::HashMap;

/// What a model column refers to (mirrors
/// [`sam_storage::FojColumnKind`], but carries encodings and is built from
/// metadata only — never from the data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArColumnKind {
    /// Content column `column` (base-schema index) of table `table`.
    Content {
        /// Join-graph table index.
        table: usize,
        /// Column index within the base table schema.
        column: usize,
    },
    /// Indicator `I_T` of non-root table `table` (domain `{0, 1}`).
    Indicator {
        /// Join-graph table index.
        table: usize,
    },
    /// Fanout `F_T` of non-root table `table` (domain `0..=max_fanout`).
    Fanout {
        /// Join-graph table index.
        table: usize,
    },
}

/// One model column.
#[derive(Debug, Clone)]
pub struct ArColumn {
    /// Reference into the database schema.
    pub kind: ArColumnKind,
    /// Display name (`A.a`, `I_B`, `F_B.x`).
    pub name: String,
    /// Bin encoding.
    pub encoding: ColumnEncoding,
}

/// Encoding policy knobs.
#[derive(Debug, Clone)]
pub struct EncodingOptions {
    /// Columns with more distinct values than this are intervalized using
    /// the workload's predicate constants (paper §4.3.2). Columns at or
    /// below the threshold stay categorical.
    pub intervalize_threshold: usize,
}

impl Default for EncodingOptions {
    fn default() -> Self {
        EncodingOptions {
            intervalize_threshold: 64,
        }
    }
}

/// Per-column rule for one progressive-sampling / DPS step.
#[derive(Debug, Clone, PartialEq)]
pub enum StepRule {
    /// Sample unconstrained; the column contributes no factor.
    Free,
    /// Multiply the estimate by the in-range mass `Σ_bin P(bin)·frac[bin]`
    /// and restrict the sample to bins with positive weight.
    InRange(Vec<f32>),
    /// Sample unconstrained, multiply by the sampled bin's weight — used for
    /// fanout scaling (`w[bin] = E[1/max(F,1)]` within the bin).
    WeightBySampled(Vec<f32>),
}

/// The model schema: ordered columns (FOJ layout: tables in topological
/// order, per non-root table `I_T`, `F_T`, then its content columns),
/// encodings, and normalisation constants.
#[derive(Debug, Clone)]
pub struct ArSchema {
    columns: Vec<ArColumn>,
    graph: JoinGraph,
    table_sizes: Vec<u64>,
    /// `|T|` (single relation) or `|FOJ|` — the cardinality normaliser.
    normalizer: f64,
    content_pos: Vec<Vec<(usize, usize)>>,
    indicator_pos: Vec<Option<usize>>,
    fanout_pos: Vec<Option<usize>>,
    /// Base-schema content column name → model column index, per table.
    by_name: HashMap<(usize, String), usize>,
}

impl ArSchema {
    /// Build the model schema from metadata and a workload (whose predicate
    /// constants drive intervalization). The target data itself is never
    /// consulted.
    pub fn build(
        schema: &DatabaseSchema,
        stats: &DatabaseStats,
        workload: &[Query],
        options: &EncodingOptions,
    ) -> Result<Self, ArError> {
        let graph = JoinGraph::new(schema).map_err(ArError::Storage)?;
        let n = graph.len();

        // Collect, per (table, column name), the code sets of all workload
        // predicates for intervalization.
        let mut predicate_sets: HashMap<(usize, String), Vec<CodeSet>> = HashMap::new();
        for q in workload {
            for p in &q.predicates {
                let t = graph
                    .index_of(&p.table)
                    .ok_or_else(|| ArError::UnknownTable(p.table.clone()))?;
                let col_stats = stats
                    .table(t)
                    .columns
                    .iter()
                    .find(|c| c.name == p.column)
                    .ok_or_else(|| ArError::UnknownColumn(p.table.clone(), p.column.clone()))?;
                predicate_sets
                    .entry((t, p.column.clone()))
                    .or_default()
                    .push(p.code_set(&col_stats.domain));
            }
        }

        let mut columns = Vec::new();
        let mut content_pos = vec![Vec::new(); n];
        let mut indicator_pos = vec![None; n];
        let mut fanout_pos = vec![None; n];
        let mut by_name = HashMap::new();

        for &t in graph.topo_order() {
            let tname = &graph.tables()[t];
            let tschema = schema.table(tname).expect("graph tables come from schema");
            if graph.parent(t).is_some() {
                indicator_pos[t] = Some(columns.len());
                columns.push(ArColumn {
                    kind: ArColumnKind::Indicator { table: t },
                    name: format!("I_{tname}"),
                    encoding: ColumnEncoding::categorical(Domain::int_range(0, 1).shared()),
                });
                fanout_pos[t] = Some(columns.len());
                let max_fanout = stats.table(t).max_fanout.max(1) as i64;
                let fk = graph.fk_column(t).expect("non-root fk");
                columns.push(ArColumn {
                    kind: ArColumnKind::Fanout { table: t },
                    name: format!("F_{tname}.{fk}"),
                    encoding: ColumnEncoding::categorical(
                        Domain::int_range(0, max_fanout).shared(),
                    ),
                });
            }
            for (stat_idx, ci) in tschema.content_indices().into_iter().enumerate() {
                let col_stats = &stats.table(t).columns[stat_idx];
                debug_assert_eq!(col_stats.name, tschema.columns[ci].name);
                let base = col_stats.domain.clone();
                if base.is_empty() {
                    // Column with no observed values (empty relation):
                    // nothing to model or decode — leave it out; generated
                    // rows emit NULL for it.
                    continue;
                }
                let numeric = matches!(col_stats.dtype, DataType::Int | DataType::Float);
                let encoding = if numeric && base.len() > options.intervalize_threshold {
                    let sets = predicate_sets
                        .get(&(t, col_stats.name.clone()))
                        .map(Vec::as_slice)
                        .unwrap_or(&[]);
                    ColumnEncoding::from_code_sets(base, sets)
                } else {
                    ColumnEncoding::categorical(base)
                };
                let pos = columns.len();
                content_pos[t].push((ci, pos));
                by_name.insert((t, col_stats.name.clone()), pos);
                columns.push(ArColumn {
                    kind: ArColumnKind::Content {
                        table: t,
                        column: ci,
                    },
                    name: format!("{tname}.{}", col_stats.name),
                    encoding,
                });
            }
        }

        let normalizer = if n == 1 {
            stats.table(0).num_rows as f64
        } else {
            stats.foj_size as f64
        };

        Ok(ArSchema {
            columns,
            graph,
            table_sizes: stats.tables.iter().map(|t| t.num_rows).collect(),
            normalizer,
            content_pos,
            indicator_pos,
            fanout_pos,
            by_name,
        })
    }

    /// Reassemble a schema from its parts (model deserialisation): the
    /// database schema (for the join graph and column names), the model
    /// columns in order, per-table sizes, and the normaliser.
    pub fn from_parts(
        db_schema: &DatabaseSchema,
        columns: Vec<ArColumn>,
        table_sizes: Vec<u64>,
        normalizer: f64,
    ) -> Result<Self, ArError> {
        let graph = JoinGraph::new(db_schema).map_err(ArError::Storage)?;
        let n = graph.len();
        let mut content_pos = vec![Vec::new(); n];
        let mut indicator_pos = vec![None; n];
        let mut fanout_pos = vec![None; n];
        let mut by_name = HashMap::new();
        for (pos, col) in columns.iter().enumerate() {
            let (ArColumnKind::Content { table, .. }
            | ArColumnKind::Indicator { table }
            | ArColumnKind::Fanout { table }) = col.kind;
            if table >= n {
                return Err(ArError::Invalid(format!(
                    "column {:?} belongs to table #{table}, schema has {n}",
                    col.name
                )));
            }
            match col.kind {
                ArColumnKind::Content { table, column } => {
                    let tname = &graph.tables()[table];
                    let tschema = db_schema
                        .table(tname)
                        .ok_or_else(|| ArError::UnknownTable(tname.clone()))?;
                    let cname = tschema
                        .columns
                        .get(column)
                        .ok_or_else(|| ArError::UnknownColumn(tname.clone(), format!("#{column}")))?
                        .name
                        .clone();
                    content_pos[table].push((column, pos));
                    by_name.insert((table, cname), pos);
                }
                ArColumnKind::Indicator { table } => indicator_pos[table] = Some(pos),
                ArColumnKind::Fanout { table } => fanout_pos[table] = Some(pos),
            }
        }
        if table_sizes.len() != n {
            return Err(ArError::Invalid(format!(
                "expected {n} table sizes, got {}",
                table_sizes.len()
            )));
        }
        Ok(ArSchema {
            columns,
            graph,
            table_sizes,
            normalizer,
            content_pos,
            indicator_pos,
            fanout_pos,
            by_name,
        })
    }

    /// Number of model columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The model columns in autoregressive order.
    pub fn columns(&self) -> &[ArColumn] {
        &self.columns
    }

    /// Per-column model domain sizes (bin counts), for the MADE config.
    pub fn domain_sizes(&self) -> Vec<usize> {
        self.columns.iter().map(|c| c.encoding.num_bins()).collect()
    }

    /// The validated join graph.
    pub fn graph(&self) -> &JoinGraph {
        &self.graph
    }

    /// `|T_t|` for each table.
    pub fn table_size(&self, t: usize) -> u64 {
        self.table_sizes[t]
    }

    /// The cardinality normaliser (`|T|` or `|FOJ|`).
    pub fn normalizer(&self) -> f64 {
        self.normalizer
    }

    /// Model position of `I_t` (non-root only).
    pub fn indicator_pos(&self, t: usize) -> Option<usize> {
        self.indicator_pos[t]
    }

    /// Model position of `F_t` (non-root only).
    pub fn fanout_pos(&self, t: usize) -> Option<usize> {
        self.fanout_pos[t]
    }

    /// Model positions of table `t`'s content columns as
    /// `(base column index, model position)` pairs.
    pub fn content_pos(&self, t: usize) -> &[(usize, usize)] {
        &self.content_pos[t]
    }

    /// The Theorem-2 identifier columns of `t.pk` as model positions:
    /// indicators and contents of `{t} ∪ Ancestors(t)`, plus fanouts of fk
    /// tables joining into that set.
    pub fn identifier_columns(&self, t: usize) -> Vec<usize> {
        let mut closure = self.graph.ancestors(t);
        closure.push(t);
        let mut out = Vec::new();
        for &s in &closure {
            if let Some(i) = self.indicator_pos[s] {
                out.push(i);
            }
            out.extend(self.content_pos[s].iter().map(|&(_, pos)| pos));
        }
        for other in 0..self.graph.len() {
            if let Some(p) = self.graph.parent(other) {
                if closure.contains(&p) {
                    if let Some(i) = self.fanout_pos[other] {
                        out.push(i);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Per-bin weights `E[1 / max(F, 1)]` for a fanout column's encoding
    /// (uniform within bins; exact for categorical fanout encodings).
    fn inverse_fanout_weights(&self, pos: usize) -> Vec<f32> {
        let enc = &self.columns[pos].encoding;
        (0..enc.num_bins())
            .map(|b| {
                let bin = enc.bin(b);
                let mut sum = 0.0f64;
                for code in bin.clone() {
                    let v = enc
                        .base_domain()
                        .value(code)
                        .as_int()
                        .expect("fanout domains are integer");
                    sum += 1.0 / (v.max(1) as f64);
                }
                (sum / bin.len() as f64) as f32
            })
            .collect()
    }

    /// Translate a query into one [`StepRule`] per model column:
    ///
    /// * content columns of involved tables with predicates → [`StepRule::InRange`];
    /// * indicators of involved non-root tables → forced to 1 ([`StepRule::InRange`]);
    /// * fanouts of fk tables outside the closure and outside the closure
    ///   root's ancestor chain → [`StepRule::WeightBySampled`] (fanout
    ///   scaling, §4.1);
    /// * everything else → [`StepRule::Free`].
    pub fn query_rules(&self, query: &Query) -> Result<Vec<StepRule>, ArError> {
        let closure = query
            .table_closure(&self.graph)
            .ok_or_else(|| ArError::UnknownTable(query.tables.join(",")))?;
        let root = closure
            .iter()
            .copied()
            .find(|&t| self.graph.parent(t).is_none_or(|p| !closure.contains(&p)))
            .expect("closure non-empty");
        let root_ancestors = self.graph.ancestors(root);

        // Combine multiple predicates on the same column by intersection.
        let mut per_column: HashMap<usize, CodeSet> = HashMap::new();
        for p in &query.predicates {
            let t = self
                .graph
                .index_of(&p.table)
                .ok_or_else(|| ArError::UnknownTable(p.table.clone()))?;
            let &pos = self
                .by_name
                .get(&(t, p.column.clone()))
                .ok_or_else(|| ArError::UnknownColumn(p.table.clone(), p.column.clone()))?;
            let set = p.code_set(self.columns[pos].encoding.base_domain());
            per_column
                .entry(pos)
                .and_modify(|existing| *existing = existing.intersect(&set))
                .or_insert(set);
        }

        let rules = self
            .columns
            .iter()
            .enumerate()
            .map(|(pos, col)| match col.kind {
                ArColumnKind::Content { .. } => match per_column.get(&pos) {
                    Some(set) => StepRule::InRange(col.encoding.frac_weights(set)),
                    None => StepRule::Free,
                },
                ArColumnKind::Indicator { table } => {
                    if closure.contains(&table) {
                        StepRule::InRange(vec![0.0, 1.0])
                    } else {
                        StepRule::Free
                    }
                }
                ArColumnKind::Fanout { table } => {
                    if closure.contains(&table) || root_ancestors.contains(&table) {
                        StepRule::Free
                    } else {
                        StepRule::WeightBySampled(self.inverse_fanout_weights(pos))
                    }
                }
            })
            .collect();
        Ok(rules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_query::{CompareOp, Predicate};
    use sam_storage::paper_example;
    use sam_storage::DatabaseStats;

    fn schema() -> ArSchema {
        let db = paper_example::figure3_database();
        let stats = DatabaseStats::from_database(&db);
        ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap()
    }

    #[test]
    fn layout_mirrors_foj_schema() {
        let s = schema();
        let names: Vec<&str> = s.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["A.a", "I_B", "F_B.x", "B.b", "I_C", "F_C.x", "C.c"]
        );
        // Fanout domain: 0..=max_fanout(=2) → 3 bins.
        assert_eq!(s.domain_sizes(), vec![2, 2, 3, 3, 2, 3, 2]);
        assert_eq!(s.normalizer(), 8.0);
    }

    #[test]
    fn identifier_columns_match_storage() {
        let db = paper_example::figure3_database();
        let foj_schema = sam_storage::FojSchema::new(&db);
        let s = schema();
        for t in 0..3 {
            assert_eq!(
                s.identifier_columns(t),
                foj_schema.identifier_columns(db.graph(), t),
                "table {t}"
            );
        }
    }

    #[test]
    fn rules_for_single_root_query() {
        let s = schema();
        let q = Query::single("A", vec![Predicate::compare("A", "a", CompareOp::Eq, "m")]);
        let rules = s.query_rules(&q).unwrap();
        // A.a filtered; both fanouts scale; indicators free.
        assert!(matches!(rules[0], StepRule::InRange(_)));
        assert_eq!(rules[1], StepRule::Free); // I_B
        assert!(matches!(rules[2], StepRule::WeightBySampled(_))); // F_B
        assert_eq!(rules[3], StepRule::Free); // B.b
        assert!(matches!(rules[5], StepRule::WeightBySampled(_))); // F_C
    }

    #[test]
    fn rules_for_fk_table_query() {
        let s = schema();
        // Query on B alone: closure {B}; A is B's ancestor → F_B free;
        // I_B forced to 1; F_C scales.
        let q = Query::single("B", vec![]);
        let rules = s.query_rules(&q).unwrap();
        assert_eq!(rules[1], StepRule::InRange(vec![0.0, 1.0])); // I_B = 1
        assert_eq!(rules[2], StepRule::Free); // F_B (ancestor chain)
        assert!(matches!(rules[5], StepRule::WeightBySampled(_))); // F_C
    }

    #[test]
    fn rules_for_join_query() {
        let s = schema();
        // B ⋈ C: closure {A, B, C} — nothing scales, both indicators forced.
        let q = Query::join(vec!["B".into(), "C".into()], vec![]);
        let rules = s.query_rules(&q).unwrap();
        assert_eq!(rules[1], StepRule::InRange(vec![0.0, 1.0]));
        assert_eq!(rules[2], StepRule::Free);
        assert_eq!(rules[4], StepRule::InRange(vec![0.0, 1.0]));
        assert_eq!(rules[5], StepRule::Free);
    }

    #[test]
    fn inverse_fanout_weights_are_correct() {
        let s = schema();
        let q = Query::single("A", vec![]);
        let rules = s.query_rules(&q).unwrap();
        let StepRule::WeightBySampled(w) = &rules[2] else {
            panic!("expected fanout scaling");
        };
        // Fanout domain {0, 1, 2} → weights 1/max(0,1)=1, 1, 1/2.
        assert_eq!(w.len(), 3);
        assert!((w[0] - 1.0).abs() < 1e-6);
        assert!((w[1] - 1.0).abs() < 1e-6);
        assert!((w[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn errors_on_unknown_names() {
        let s = schema();
        let q = Query::single("Z", vec![]);
        assert!(s.query_rules(&q).is_err());
        let q = Query::single(
            "A",
            vec![Predicate::compare("A", "zz", CompareOp::Eq, 1i64)],
        );
        assert!(s.query_rules(&q).is_err());
    }

    #[test]
    fn single_relation_schema_has_no_virtual_columns() {
        let db = paper_example::figure3_database();
        let single = sam_storage::Database::single(db.table_by_name("A").unwrap().clone());
        let stats = DatabaseStats::from_database(&single);
        let s = ArSchema::build(single.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
        assert_eq!(s.num_columns(), 1);
        assert_eq!(s.normalizer(), 4.0);
    }
}
