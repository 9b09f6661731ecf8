//! Inverse probability weighting and scaling (paper §4.3.1, Algorithm 2).
//!
//! A uniform full-outer-join sample is *biased* for each base relation: a
//! base tuple fanned out `k` times appears `k` times as often. Following the
//! Horvitz–Thompson construction, each sampled FOJ row is down-weighted for
//! relation `T` by the inverse of the row's total fanout excluding `T` and
//! its ancestors (Eq 4). Scaling then renormalises the weights so they sum
//! to `|T|`, letting a small FOJ sample generate full-size relations.

use sam_ar::{ArSchema, ModelRow};

/// Per-sample, per-table weighting derived from one batch of model rows.
#[derive(Debug, Clone)]
pub struct WeightedSamples {
    /// `participates[r][t]`: table `t` is present in row `r` (its indicator
    /// and all its ancestors' indicators are 1; the root always is).
    pub participates: Vec<Vec<bool>>,
    /// `weight[r][t] = W_T(x_r)` (Eq 4); 0 when `t` does not participate.
    pub weight: Vec<Vec<f64>>,
    /// `scaled[r][t] = W^s_T(x_r)` after multiplying by `|T| / W^sum_T`.
    pub scaled: Vec<Vec<f64>>,
    /// Per-table cumulative raw weight `W^sum_T`.
    pub weight_sum: Vec<f64>,
    /// Per-table scale factor `|T| / W^sum_T` (0 if the sum is 0).
    pub scale_factor: Vec<f64>,
    /// Decoded fanout value per row per table (non-root; `max(F, 1)` applied,
    /// 1 for NULL/absent sides per the paper's NULL handling).
    pub fanout: Vec<Vec<u64>>,
}

/// Decode participation: a table is present iff its indicator bin is 1 and
/// its parent participates.
fn participation(schema: &ArSchema, row: &ModelRow) -> Vec<bool> {
    let graph = schema.graph();
    let n = graph.len();
    let mut out = vec![false; n];
    for &t in graph.topo_order() {
        out[t] = match graph.parent(t) {
            None => true,
            Some(p) => {
                out[p]
                    && schema
                        .indicator_pos(t)
                        .map(|pos| row[pos] == 1)
                        .unwrap_or(false)
            }
        };
    }
    out
}

/// Decode a row's effective fanout per table: `max(F_t, 1)` when the table
/// participates, else 1 (paper: NULL fanouts count as 1 in weights).
fn effective_fanouts(schema: &ArSchema, row: &ModelRow, participates: &[bool]) -> Vec<u64> {
    let graph = schema.graph();
    (0..graph.len())
        .map(|t| {
            if !participates[t] {
                return 1;
            }
            match schema.fanout_pos(t) {
                Some(pos) => {
                    let enc = &schema.columns()[pos].encoding;
                    let v = enc
                        .representative(row[pos] as usize)
                        .as_int()
                        .expect("fanout values are ints");
                    (v.max(1)) as u64
                }
                None => 1, // root
            }
        })
        .collect()
}

/// Apply inverse probability weighting + scaling to a batch of model rows.
pub fn weigh_samples(schema: &ArSchema, rows: &[ModelRow]) -> WeightedSamples {
    let graph = schema.graph();
    let n = graph.len();
    let mut participates = Vec::with_capacity(rows.len());
    let mut weight = Vec::with_capacity(rows.len());
    let mut fanout = Vec::with_capacity(rows.len());
    let mut weight_sum = vec![0.0f64; n];

    // Pre-compute, per table, which other tables' fanouts divide its weight:
    // everything except itself and its ancestors (Eq 4).
    let divisors: Vec<Vec<usize>> = (0..n)
        .map(|t| {
            let mut excluded = graph.ancestors(t);
            excluded.push(t);
            (0..n)
                .filter(|&o| graph.parent(o).is_some() && !excluded.contains(&o))
                .collect()
        })
        .collect();

    for row in rows {
        let part = participation(schema, row);
        let fans = effective_fanouts(schema, row, &part);
        let mut w = vec![0.0f64; n];
        for (t, wt) in w.iter_mut().enumerate() {
            if !part[t] {
                continue;
            }
            let denom: f64 = divisors[t].iter().map(|&o| fans[o] as f64).product();
            *wt = 1.0 / denom;
            weight_sum[t] += *wt;
        }
        participates.push(part);
        weight.push(w);
        fanout.push(fans);
    }

    let _scale_span = sam_obs::span!("scale", tables = n, rows = rows.len());
    let scale_factor: Vec<f64> = (0..n)
        .map(|t| {
            if weight_sum[t] > 0.0 {
                schema.table_size(t) as f64 / weight_sum[t]
            } else {
                0.0
            }
        })
        .collect();
    let scaled: Vec<Vec<f64>> = weight
        .iter()
        .map(|w| w.iter().zip(&scale_factor).map(|(a, s)| a * s).collect())
        .collect();

    WeightedSamples {
        participates,
        weight,
        scaled,
        weight_sum,
        scale_factor,
        fanout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_ar::{ArSchema, EncodingOptions};
    use sam_storage::{paper_example, DatabaseStats};

    fn schema() -> ArSchema {
        let db = paper_example::figure3_database();
        let stats = DatabaseStats::from_database(&db);
        ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap()
    }

    /// Recreate the four samples of Figure 3(c) as model rows.
    ///
    /// Model layout: [A.a, I_B, F_B, B.b, I_C, F_C, C.c]; domains:
    /// A.a {m,n}; F {0,1,2}; B.b {a,b,c}; C.c {i,j}.
    fn figure3c_rows() -> Vec<ModelRow> {
        vec![
            // (1,m): F_B=1, F_C=2; contents arbitrary in-branch.
            vec![0, 1, 1, 0, 1, 2, 0],
            // (2,m): F_B=2, F_C=2 — two samples.
            vec![0, 1, 2, 1, 1, 2, 0],
            vec![0, 1, 2, 2, 1, 2, 1],
            // (n): joins nothing.
            vec![1, 0, 0, 0, 0, 0, 0],
        ]
    }

    #[test]
    fn weights_match_paper_figure3() {
        let s = schema();
        let w = weigh_samples(&s, &figure3c_rows());
        let a = 0usize;
        // W_A per paper: 0.5, 0.25, 0.25, 1.
        assert!((w.weight[0][a] - 0.5).abs() < 1e-9);
        assert!((w.weight[1][a] - 0.25).abs() < 1e-9);
        assert!((w.weight[2][a] - 0.25).abs() < 1e-9);
        assert!((w.weight[3][a] - 1.0).abs() < 1e-9);
        // W_A^sum = 2, |A| = 4 → scale 2; scaled: 1, 0.5, 0.5, 2.
        assert!((w.weight_sum[a] - 2.0).abs() < 1e-9);
        assert!((w.scale_factor[a] - 2.0).abs() < 1e-9);
        assert!((w.scaled[0][a] - 1.0).abs() < 1e-9);
        assert!((w.scaled[3][a] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_weights_sum_to_table_sizes() {
        let s = schema();
        let w = weigh_samples(&s, &figure3c_rows());
        for t in 0..3 {
            let sum: f64 = w.scaled.iter().map(|r| r[t]).sum();
            assert!(
                (sum - s.table_size(t) as f64).abs() < 1e-9,
                "table {t}: {sum}"
            );
        }
    }

    #[test]
    fn null_rows_derive_only_root_samples() {
        let s = schema();
        let w = weigh_samples(&s, &figure3c_rows());
        // Fourth sample: B and C absent.
        assert!(w.participates[3][0]);
        assert!(!w.participates[3][1]);
        assert!(!w.participates[3][2]);
        assert_eq!(w.weight[3][1], 0.0);
        assert_eq!(w.weight[3][2], 0.0);
        // NULL fanouts counted as 1 in W_A.
        assert_eq!(w.fanout[3], vec![1, 1, 1]);
    }

    #[test]
    fn fk_table_weights_divide_by_sibling_fanout_only() {
        let s = schema();
        let w = weigh_samples(&s, &figure3c_rows());
        let b = 1usize;
        // W_B(row 0) = 1/F_C = 0.5 (B and its ancestor A excluded).
        assert!((w.weight[0][b] - 0.5).abs() < 1e-9);
        // Row 1: F_C = 2 → 0.5.
        assert!((w.weight[1][b] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn inconsistent_indicator_descendant_is_absent() {
        // If a model samples I_B = 0 but some descendant indicator 1, the
        // descendant must still be treated as absent. (Use the deeper-tree
        // schema from sam-storage's tests via a quick inline build.)
        use sam_storage::{
            Column, ColumnDef, DataType, Database, DatabaseSchema, ForeignKeyEdge, Table,
            TableSchema,
        };
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
        // One tuple per table, as integer columns.
        let table = |schema: TableSchema, ints: &[i64]| {
            let columns = ints
                .iter()
                .map(|&v| Column::from_ints(&[Some(v)]))
                .collect();
            Table::new(schema, columns).unwrap()
        };
        let a = table(a_schema, &[1, 10]);
        let b = table(b_schema, &[1, 1, 5]);
        let d = table(d_schema, &[1, 7]);
        let db = Database::new(schema, vec![a, b, d], true).unwrap();
        let stats = DatabaseStats::from_database(&db);
        let s = ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
        // Layout: [A.a, I_B, F_B, B.b, I_D, F_D, D.d]; set I_B=0 but I_D=1.
        let rows = vec![vec![0u32, 0, 0, 0, 1, 1, 0]];
        let w = weigh_samples(&s, &rows);
        assert!(!w.participates[0][1], "B absent");
        assert!(!w.participates[0][2], "D must be absent when B is");
    }
}

#[cfg(test)]
mod ablation_tests {
    //! The IPW ablation DESIGN.md calls for: uniform FOJ samples *without*
    //! inverse probability weighting recover a biased base-relation
    //! distribution; with IPW the bias disappears (Theorem 1).

    use super::*;
    use sam_ar::{ArSchema, EncodingOptions};
    use sam_storage::{materialize_foj, paper_example, DatabaseStats};

    fn exact_foj_rows(db: &sam_storage::Database, ar: &ArSchema) -> Vec<ModelRow> {
        let foj = materialize_foj(db);
        (0..foj.num_rows())
            .map(|r| {
                ar.columns()
                    .iter()
                    .map(|col| {
                        let pos = match col.kind {
                            sam_ar::ArColumnKind::Content { table, column } => {
                                foj.schema.content_position(table, column).unwrap()
                            }
                            sam_ar::ArColumnKind::Indicator { table } => {
                                foj.schema.indicator_index(table).unwrap()
                            }
                            sam_ar::ArColumnKind::Fanout { table } => {
                                foj.schema.fanout_index(table).unwrap()
                            }
                        };
                        let v = foj.value(r, pos);
                        let code = col.encoding.base_domain().code_of(&v).unwrap_or(0);
                        col.encoding.bin_of_code(code) as u32
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn without_ipw_the_marginal_is_biased_with_ipw_it_is_not() {
        // In the Figure-3 FOJ, A-tuple (2,m) appears 4/8 of the time, but
        // its true base-relation frequency is 1/4. Unweighted (all-ones)
        // estimates inherit the 'm' bias; IPW removes it.
        let db = paper_example::figure3_database();
        let stats = DatabaseStats::from_database(&db);
        let ar = ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
        let rows = exact_foj_rows(&db, &ar);
        let w = weigh_samples(&ar, &rows);

        // Content column A.a is model position 0; bin 0 = 'm'.
        let m_rows: Vec<usize> = (0..rows.len()).filter(|&r| rows[r][0] == 0).collect();

        // Unweighted frequency of 'm' across FOJ samples: 6/8 = 0.75.
        let unweighted = m_rows.len() as f64 / rows.len() as f64;
        assert!((unweighted - 0.75).abs() < 1e-9);

        // IPW-weighted frequency: Σ W_A over 'm' rows / Σ W_A = 2/4 = 0.5,
        // the true base-relation marginal.
        let m_mass: f64 = m_rows.iter().map(|&r| w.weight[r][0]).sum();
        let weighted = m_mass / w.weight_sum[0];
        assert!(
            (weighted - 0.5).abs() < 1e-9,
            "IPW marginal {weighted} != 0.5"
        );
    }
}
