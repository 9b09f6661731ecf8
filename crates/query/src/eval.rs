//! Exact cardinality evaluation.
//!
//! [`evaluate_cardinality`] computes `Card(q)` — the number of tuples in the
//! (inner) join of the query's table closure that satisfy all predicates —
//! in `O(rows)` per involved table via a bottom-up weighted count along the
//! join tree, without materialising the join. Child weights meet parent rows
//! on dictionary codes ([`Database::join_sums`]); no `Value` is cloned or
//! hashed. [`label_workload`] evaluates a workload's queries in parallel and
//! returns them in input order. A naive nested-loop reference
//! ([`evaluate_naive`]), keyed by `Value`, is the independent oracle of the
//! property tests.

#![allow(clippy::needless_range_loop, clippy::only_used_in_recursion)]
use crate::predicate::CodeSet;
use crate::query::{LabeledQuery, Query, Workload};
use rayon::prelude::*;
use sam_storage::{Database, StorageError, Table, Value, NULL_CODE};
use std::collections::HashMap;

/// Per-row boolean mask of rows satisfying a query's predicates on `table`.
fn predicate_mask(table: &Table, query: &Query) -> Result<Vec<bool>, StorageError> {
    let mut mask = vec![true; table.num_rows()];
    for p in query.predicates_on(table.name()) {
        let col_idx = table
            .schema()
            .column_index(&p.column)
            .ok_or_else(|| StorageError::UnknownColumn(p.table.clone(), p.column.clone()))?;
        let column = table.column(col_idx);
        let codes = p.code_set(column.domain());
        // Fast path: contiguous range test on raw codes.
        match codes {
            CodeSet::Range(r) => {
                for (row, m) in mask.iter_mut().enumerate() {
                    let c = column.code(row);
                    *m &= c != NULL_CODE && r.contains(&c);
                }
            }
            CodeSet::Set(s) => {
                for (row, m) in mask.iter_mut().enumerate() {
                    let c = column.code(row);
                    *m &= c != NULL_CODE && s.binary_search(&c).is_ok();
                }
            }
        }
    }
    Ok(mask)
}

/// Exact `Card(q)` on `db`.
///
/// Inner-join semantics over the query's table closure: a row of the closure
/// root contributes the product over closure children of the summed weights
/// of matching child rows (zero when a required child has no match).
pub fn evaluate_cardinality(db: &Database, query: &Query) -> Result<u64, StorageError> {
    let graph = db.graph();
    let closure = query
        .table_closure(graph)
        .ok_or_else(|| StorageError::UnknownTable(query.tables.join(",")))?;
    let in_closure = |t: usize| closure.contains(&t);

    // Bottom-up weights, children before parents.
    let mut weights: Vec<Vec<u64>> = vec![Vec::new(); graph.len()];
    for &t in graph.topo_order().iter().rev() {
        if !in_closure(t) {
            continue;
        }
        let mask = predicate_mask(db.table(t), query)?;
        let mut w: Vec<u64> = mask.iter().map(|&m| m as u64).collect();
        for &c in graph.children(t).iter().filter(|&&c| in_closure(c)) {
            for (wt, s) in w.iter_mut().zip(db.join_sums(c, &weights[c])?) {
                *wt *= s;
            }
        }
        weights[t] = w;
    }

    // The closure root: the unique closure table whose parent is outside it.
    let root = closure
        .iter()
        .copied()
        .find(|&t| graph.parent(t).is_none_or(|p| !in_closure(p)))
        .expect("closure is non-empty");
    Ok(weights[root].iter().sum())
}

/// Naive reference evaluator: materialises the inner join by nested loops.
/// Exponential in the worst case — test-scale only.
pub fn evaluate_naive(db: &Database, query: &Query) -> Result<u64, StorageError> {
    let graph = db.graph();
    let closure = query
        .table_closure(graph)
        .ok_or_else(|| StorageError::UnknownTable(query.tables.join(",")))?;
    // Recursive expansion mirroring evaluate_cardinality's semantics.
    fn expand(
        db: &Database,
        query: &Query,
        closure: &[usize],
        t: usize,
        masks: &HashMap<usize, Vec<bool>>,
    ) -> HashMap<Value, u64> {
        let graph = db.graph();
        let table = db.table(t);
        let children: Vec<usize> = graph
            .children(t)
            .iter()
            .copied()
            .filter(|c| closure.contains(c))
            .collect();
        let child_maps: Vec<HashMap<Value, u64>> = children
            .iter()
            .map(|&c| expand(db, query, closure, c, masks))
            .collect();
        let mut out: HashMap<Value, u64> = HashMap::new();
        for r in 0..table.num_rows() {
            if !masks[&t][r] {
                continue;
            }
            let mut w = 1u64;
            if !children.is_empty() {
                let pk_idx = table.schema().pk_index().expect("pk");
                let key = table.value(r, pk_idx);
                for m in &child_maps {
                    w *= m.get(&key).copied().unwrap_or(0);
                }
            }
            if w == 0 {
                continue;
            }
            let key = match graph.fk_column(t) {
                Some(fk) => {
                    let idx = table.schema().column_index(fk).expect("fk col");
                    table.value(r, idx)
                }
                None => Value::Null,
            };
            *out.entry(key).or_insert(0) += w;
        }
        out
    }

    let mut masks = HashMap::new();
    for &t in &closure {
        masks.insert(t, predicate_mask(db.table(t), query)?);
    }
    let root = closure
        .iter()
        .copied()
        .find(|&t| graph.parent(t).is_none_or(|p| !closure.contains(&p)))
        .expect("closure non-empty");
    Ok(expand(db, query, &closure, root, &masks).values().sum())
}

/// Label a set of queries with their true cardinalities on `db`.
///
/// Queries are evaluated in parallel on rayon's global pool; the workload
/// keeps the input order. On failure the error is that of the first failing
/// query in input order, whatever order the workers finished in.
pub fn label_workload(db: &Database, queries: Vec<Query>) -> Result<Workload, StorageError> {
    let labelled: Vec<Result<LabeledQuery, StorageError>> = queries
        .into_par_iter()
        .map(|query| {
            evaluate_cardinality(db, &query).map(|cardinality| LabeledQuery { query, cardinality })
        })
        .collect();
    let labelled = labelled.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(Workload::new(labelled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CompareOp, Predicate};
    use sam_storage::paper_example;

    fn db() -> Database {
        paper_example::figure3_database()
    }

    #[test]
    fn single_table_counts() {
        let db = db();
        let q = Query::single("A", vec![Predicate::compare("A", "a", CompareOp::Eq, "m")]);
        assert_eq!(evaluate_cardinality(&db, &q).unwrap(), 2);
        let all = Query::single("A", vec![]);
        assert_eq!(evaluate_cardinality(&db, &all).unwrap(), 4);
    }

    #[test]
    fn two_way_join() {
        let db = db();
        // A ⋈ B: every B row matches (fk integrity) → 3.
        let q = Query::join(vec!["A".into(), "B".into()], vec![]);
        assert_eq!(evaluate_cardinality(&db, &q).unwrap(), 3);
        // Filter A.a = 'm': all B rows have fk 1 or 2, both 'm' → 3.
        let q = Query::join(
            vec!["A".into(), "B".into()],
            vec![Predicate::compare("A", "a", CompareOp::Eq, "m")],
        );
        assert_eq!(evaluate_cardinality(&db, &q).unwrap(), 3);
        // Filter B.b = 'a' → only the fk-1 row.
        let q = Query::join(
            vec!["A".into(), "B".into()],
            vec![Predicate::compare("B", "b", CompareOp::Eq, "a")],
        );
        assert_eq!(evaluate_cardinality(&db, &q).unwrap(), 1);
    }

    #[test]
    fn three_way_join_through_closure() {
        let db = db();
        // B ⋈ C joins through A: (1: 1×2) + (2: 2×2) = 6.
        let q = Query::join(vec!["B".into(), "C".into()], vec![]);
        assert_eq!(evaluate_cardinality(&db, &q).unwrap(), 6);
        // Restrict C.c = 'i': fanouts become 1 per key → 1 + 2 = 3.
        let q = Query::join(
            vec!["B".into(), "C".into()],
            vec![Predicate::compare("C", "c", CompareOp::Eq, "i")],
        );
        assert_eq!(evaluate_cardinality(&db, &q).unwrap(), 3);
    }

    #[test]
    fn inner_join_excludes_unmatched_pk_rows() {
        let db = db();
        // A ⋈ C with A.a = 'n': tuples 3 and 4 join no C rows → 0.
        let q = Query::join(
            vec!["A".into(), "C".into()],
            vec![Predicate::compare("A", "a", CompareOp::Eq, "n")],
        );
        assert_eq!(evaluate_cardinality(&db, &q).unwrap(), 0);
    }

    #[test]
    fn naive_agrees_with_fast() {
        let db = db();
        let queries = vec![
            Query::single("A", vec![]),
            Query::single("C", vec![Predicate::compare("C", "c", CompareOp::Ge, "j")]),
            Query::join(vec!["A".into(), "B".into()], vec![]),
            Query::join(vec!["B".into(), "C".into()], vec![]),
            Query::join(
                vec!["A".into(), "B".into(), "C".into()],
                vec![
                    Predicate::compare("A", "a", CompareOp::Eq, "m"),
                    Predicate::compare("B", "b", CompareOp::Ge, "b"),
                ],
            ),
        ];
        for q in queries {
            assert_eq!(
                evaluate_cardinality(&db, &q).unwrap(),
                evaluate_naive(&db, &q).unwrap(),
                "query {q}"
            );
        }
    }

    #[test]
    fn label_workload_attaches_cards() {
        let db = db();
        let w = label_workload(&db, vec![Query::single("A", vec![])]).unwrap();
        assert_eq!(w.queries[0].cardinality, 4);
    }

    #[test]
    fn label_workload_keeps_input_order_and_reports_the_first_error() {
        let db = db();
        let join = Query::join(vec!["A".into(), "B".into()], vec![]);
        let queries: Vec<Query> = (0..40)
            .map(|i| {
                if i % 3 == 0 {
                    join.clone()
                } else {
                    Query::single("A", vec![])
                }
            })
            .collect();
        let w = label_workload(&db, queries.clone()).unwrap();
        for (lq, q) in w.queries.iter().zip(&queries) {
            assert_eq!(&lq.query, q);
            assert_eq!(lq.cardinality, if *q == join { 3 } else { 4 });
        }
        // Two failures in different worker chunks: the earlier one wins.
        let mut queries = queries;
        queries[17] = Query::single("X", vec![]);
        queries[31] = Query::single("Y", vec![]);
        let err = label_workload(&db, queries).unwrap_err();
        assert!(
            matches!(&err, StorageError::UnknownTable(t) if t == "X"),
            "{err}"
        );
    }

    #[test]
    fn join_cardinality_matches_foj_restriction() {
        // Card(A ⋈ B ⋈ C) must equal the number of FOJ rows where both
        // indicators are 1.
        let db = db();
        let foj = sam_storage::materialize_foj(&db);
        let g = db.graph();
        let ib = foj
            .schema
            .indicator_index(g.index_of("B").unwrap())
            .unwrap();
        let ic = foj
            .schema
            .indicator_index(g.index_of("C").unwrap())
            .unwrap();
        let expected = (0..foj.num_rows())
            .filter(|&r| foj.value(r, ib) == Value::Int(1) && foj.value(r, ic) == Value::Int(1))
            .count() as u64;
        let q = Query::join(vec!["A".into(), "B".into(), "C".into()], vec![]);
        assert_eq!(evaluate_cardinality(&db, &q).unwrap(), expected);
    }
}
