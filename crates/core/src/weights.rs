//! Inverse probability weighting and scaling (paper §4.3.1, Algorithm 2).
//!
//! A uniform full-outer-join sample is *biased* for each base relation: a
//! base tuple fanned out `k` times appears `k` times as often. Following the
//! Horvitz–Thompson construction, each sampled FOJ row is down-weighted for
//! relation `T` by the inverse of the row's total fanout excluding `T` and
//! its ancestors (Eq 4). Scaling then renormalises the weights so they sum
//! to `|T|`, letting a small FOJ sample generate full-size relations.
//!
//! Weights live in row-major `rows × tables` buffers read through `(r, t)`
//! accessors, and each fanout column is decoded once per bin.

use sam_ar::{ArSchema, ModelRow};

/// Per-sample, per-table weighting derived from one batch of model rows.
#[derive(Debug, Clone)]
pub struct WeightedSamples {
    tables: usize,
    participates: Vec<bool>,
    weight: Vec<f64>,
    scaled: Vec<f64>,
    /// Per-table cumulative raw weight `W^sum_T`.
    pub weight_sum: Vec<f64>,
    /// Per-table scale factor `|T| / W^sum_T` (0 if the sum is 0).
    pub scale_factor: Vec<f64>,
}

impl WeightedSamples {
    /// Number of weighted rows.
    pub fn rows(&self) -> usize {
        self.participates.len() / self.tables
    }

    /// Table `t` is present in row `r`: its indicator and all its
    /// ancestors' indicators are 1 (the root always is).
    pub fn participates(&self, r: usize, t: usize) -> bool {
        self.participates[r * self.tables + t]
    }

    /// `W_T(x_r)` (Eq 4); 0 when `t` does not participate.
    pub fn weight(&self, r: usize, t: usize) -> f64 {
        self.weight[r * self.tables + t]
    }

    /// `W^s_T(x_r)`: `W_T(x_r)` times `|T| / W^sum_T`.
    pub fn scaled(&self, r: usize, t: usize) -> f64 {
        self.scaled[r * self.tables + t]
    }

    #[cfg(test)]
    pub(crate) fn set_scaled(&mut self, r: usize, t: usize, w: f64) {
        self.scaled[r * self.tables + t] = w;
    }
}

/// Apply inverse probability weighting + scaling to a batch of model rows.
pub fn weigh_samples(schema: &ArSchema, rows: &[ModelRow]) -> WeightedSamples {
    let graph = schema.graph();
    let n = graph.len();
    // `divisors[starts[t]..starts[t + 1]]`: the tables whose fanouts divide
    // `t`'s weight, ascending — all but the root, `t` and its ancestors.
    let (mut divisors, mut starts) = (Vec::new(), vec![0]);
    for t in 0..n {
        let excluded = graph.ancestors(t);
        let divides = |&o: &usize| graph.parent(o).is_some() && o != t && !excluded.contains(&o);
        divisors.extend((0..n).filter(divides));
        starts.push(divisors.len());
    }
    // `max(F, 1)` of each bin of every non-root table's fanout column, as
    // the divisor it becomes (absent tables divide by 1, as NULL fanouts do).
    let fanout_of_bin: Vec<Option<(usize, Vec<f64>)>> = (0..n)
        .map(|t| {
            let pos = schema.fanout_pos(t)?;
            let enc = &schema.columns()[pos].encoding;
            let fans = (0..enc.num_bins()).map(|b| {
                let v = enc
                    .representative(b)
                    .as_int()
                    .expect("fanout values are ints");
                v.max(1) as u64 as f64
            });
            Some((pos, fans.collect()))
        })
        .collect();

    let mut participates = vec![false; rows.len() * n];
    let mut weight = vec![0.0f64; rows.len() * n];
    let mut weight_sum = vec![0.0f64; n];
    let mut fans = vec![1.0f64; n];
    for (r, row) in rows.iter().enumerate() {
        let part = &mut participates[r * n..(r + 1) * n];
        // A table is present iff its parent is and its indicator bin is 1.
        for &t in graph.topo_order() {
            part[t] = match graph.parent(t) {
                None => true,
                Some(p) => part[p] && schema.indicator_pos(t).is_some_and(|i| row[i] == 1),
            };
        }
        for (t, fan) in fans.iter_mut().enumerate() {
            *fan = match &fanout_of_bin[t] {
                Some((pos, of_bin)) if part[t] => of_bin[row[*pos] as usize],
                _ => 1.0,
            };
        }
        for t in (0..n).filter(|&t| part[t]) {
            let denom: f64 = divisors[starts[t]..starts[t + 1]]
                .iter()
                .map(|&o| fans[o])
                .product();
            weight[r * n + t] = 1.0 / denom;
            weight_sum[t] += weight[r * n + t];
        }
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
    let scaled = weight
        .iter()
        .enumerate()
        .map(|(i, w)| w * scale_factor[i % n])
        .collect();
    WeightedSamples {
        tables: n,
        participates,
        weight,
        scaled,
        weight_sum,
        scale_factor,
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
        assert!((w.weight(0, a) - 0.5).abs() < 1e-9);
        assert!((w.weight(1, a) - 0.25).abs() < 1e-9);
        assert!((w.weight(2, a) - 0.25).abs() < 1e-9);
        assert!((w.weight(3, a) - 1.0).abs() < 1e-9);
        // W_A^sum = 2, |A| = 4 → scale 2; scaled: 1, 0.5, 0.5, 2.
        assert!((w.weight_sum[a] - 2.0).abs() < 1e-9);
        assert!((w.scale_factor[a] - 2.0).abs() < 1e-9);
        assert!((w.scaled(0, a) - 1.0).abs() < 1e-9);
        assert!((w.scaled(3, a) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_weights_sum_to_table_sizes() {
        let s = schema();
        let w = weigh_samples(&s, &figure3c_rows());
        for t in 0..3 {
            let sum: f64 = (0..w.rows()).map(|r| w.scaled(r, t)).sum();
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
        assert!(w.participates(3, 0));
        assert!(!w.participates(3, 1));
        assert!(!w.participates(3, 2));
        assert_eq!(w.weight(3, 1), 0.0);
        assert_eq!(w.weight(3, 2), 0.0);
        // NULL fanouts counted as 1 in W_A: 1 / (1 · 1), exactly.
        assert_eq!(w.weight(3, 0), 1.0);
    }

    #[test]
    fn fk_table_weights_divide_by_sibling_fanout_only() {
        let s = schema();
        let w = weigh_samples(&s, &figure3c_rows());
        let b = 1usize;
        // W_B(row 0) = 1/F_C = 0.5 (B and its ancestor A excluded).
        assert!((w.weight(0, b) - 0.5).abs() < 1e-9);
        // Row 1: F_C = 2 → 0.5.
        assert!((w.weight(1, b) - 0.5).abs() < 1e-9);
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
        assert!(!w.participates(0, 1), "B absent");
        assert!(!w.participates(0, 2), "D must be absent when B is");
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
        let m_mass: f64 = m_rows.iter().map(|&r| w.weight(r, 0)).sum();
        let weighted = m_mass / w.weight_sum[0];
        assert!(
            (weighted - 0.5).abs() < 1e-9,
            "IPW marginal {weighted} != 0.5"
        );
    }
}
