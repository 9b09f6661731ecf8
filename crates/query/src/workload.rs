//! Workload generators (paper §5.1).
//!
//! These mimic how the paper's input workloads were produced *on the target
//! database* (they are experiment infrastructure, not part of SAM — SAM only
//! ever sees the resulting labelled queries):
//!
//! * **Single-relation** (Census/DMV): draw the number of filters `n_f ∈
//!   1..=5`, uniformly sample `n_f` columns and operators from `{<=, =, >=}`,
//!   and take the literals from a uniformly sampled tuple.
//! * **Multi-relation** (IMDB, MSCN-style): 0–2 joins over a connected
//!   subtree of the join graph, per-table filter counts drawn from `0..=n_cols`,
//!   literals from a join-consistent tuple.
//! * **JOB-light-style** test queries: joins of up to 5 relations.
//! * **Coverage-restricted** workloads (Fig 8): literals confined to a
//!   centred window covering a fixed ratio of each column's domain.

use crate::predicate::{CompareOp, Constraint, Predicate};
use crate::query::Query;
use rand::prelude::*;
use rand::rngs::StdRng;
use sam_storage::{Database, Table, NULL_CODE};
use std::collections::HashSet;

const RANGE_OPS: [CompareOp; 3] = [CompareOp::Le, CompareOp::Eq, CompareOp::Ge];

/// Per-column literal windows implementing the Fig 8 coverage-ratio
/// restriction: literals are clamped into the central `ratio` fraction of
/// each column's code space.
#[derive(Debug, Clone)]
pub struct CoverageWindows {
    /// Per content column (schema order): allowed half-open code window.
    windows: Vec<std::ops::Range<u32>>,
    /// Content column indices the windows correspond to.
    columns: Vec<usize>,
}

impl CoverageWindows {
    /// Centred windows covering `ratio ∈ (0, 1]` of each content column's
    /// domain of `table`.
    pub fn centered(table: &Table, ratio: f64) -> Self {
        let ratio = ratio.clamp(0.0, 1.0);
        let columns = table.schema().content_indices();
        let windows = columns
            .iter()
            .map(|&ci| {
                let d = table.column(ci).domain().len() as u32;
                let len = ((d as f64 * ratio).ceil() as u32).clamp(1, d.max(1));
                let start = (d - len) / 2;
                start..start + len
            })
            .collect();
        CoverageWindows { windows, columns }
    }

    fn clamp_code(&self, column: usize, code: u32) -> u32 {
        match self.columns.iter().position(|&c| c == column) {
            Some(i) => {
                let w = &self.windows[i];
                code.clamp(w.start, w.end.saturating_sub(1))
            }
            None => code,
        }
    }
}

/// Seeded query generator over a target database.
#[derive(Debug)]
pub struct WorkloadGenerator<'a> {
    db: &'a Database,
    rng: StdRng,
}

impl<'a> WorkloadGenerator<'a> {
    /// Create a generator with a deterministic seed.
    pub fn new(db: &'a Database, seed: u64) -> Self {
        WorkloadGenerator {
            db,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// One single-relation query on `table` following the paper's recipe.
    /// `coverage` optionally clamps literals into restricted windows.
    pub fn single_query(&mut self, table: &str, coverage: Option<&CoverageWindows>) -> Query {
        let t = self
            .db
            .table_by_name(table)
            .expect("workload table must exist");
        let content: Vec<usize> = t
            .schema()
            .content_indices()
            .into_iter()
            .filter(|&ci| !t.column(ci).domain().is_empty())
            .collect();
        if content.is_empty() || t.num_rows() == 0 {
            return Query::single(table, vec![]);
        }
        let max_f = content.len().clamp(1, 5);
        let n_f = self.rng.gen_range(1..=max_f);
        let cols: Vec<usize> = content
            .choose_multiple(&mut self.rng, n_f)
            .copied()
            .collect();
        let row = self.rng.gen_range(0..t.num_rows().max(1));
        let predicates = cols
            .into_iter()
            .map(|ci| {
                let column = t.column(ci);
                let mut code = column.code(row);
                if code == NULL_CODE {
                    code = self.rng.gen_range(0..column.domain().len().max(1)) as u32;
                }
                if let Some(cov) = coverage {
                    code = cov.clamp_code(ci, code);
                }
                let literal = column.domain().value(code).clone();
                // Occasionally emit an IN list around the sampled value
                // (the paper's query class includes IN clauses).
                let constraint = if coverage.is_none() && self.rng.gen_bool(0.12) {
                    let extra = self.rng.gen_range(1..=3usize);
                    let mut values = vec![literal];
                    for _ in 0..extra {
                        let c = self.rng.gen_range(0..column.domain().len().max(1)) as u32;
                        values.push(column.domain().value(c).clone());
                    }
                    values.sort();
                    values.dedup();
                    Constraint::In(values)
                } else {
                    let op = *RANGE_OPS.choose(&mut self.rng).expect("ops non-empty");
                    Constraint::Compare(op, literal)
                };
                Predicate {
                    table: table.to_string(),
                    column: t.schema().columns[ci].name.clone(),
                    constraint,
                }
            })
            .collect();
        Query::single(table, predicates)
    }

    /// A workload of `n` single-relation queries on `table`.
    pub fn single_workload(&mut self, table: &str, n: usize) -> Vec<Query> {
        (0..n).map(|_| self.single_query(table, None)).collect()
    }

    /// A coverage-restricted workload (Fig 8): same recipe, literals clamped
    /// into centred windows covering `ratio` of each column's domain.
    pub fn coverage_workload(&mut self, table: &str, n: usize, ratio: f64) -> Vec<Query> {
        let t = self.db.table_by_name(table).expect("table exists");
        let cov = CoverageWindows::centered(t, ratio);
        (0..n)
            .map(|_| self.single_query(table, Some(&cov)))
            .collect()
    }

    /// Pick a connected subtree of the join graph with `size` tables via a
    /// random neighbour walk.
    fn random_subtree(&mut self, size: usize) -> Vec<usize> {
        let graph = self.db.graph();
        let n = graph.len();
        let size = size.clamp(1, n);
        let mut chosen = vec![self.rng.gen_range(0..n)];
        while chosen.len() < size {
            // Candidate neighbours of the current set.
            let mut frontier: Vec<usize> = Vec::new();
            for &t in &chosen {
                if let Some(p) = graph.parent(t) {
                    if !chosen.contains(&p) {
                        frontier.push(p);
                    }
                }
                for &c in graph.children(t) {
                    if !chosen.contains(&c) {
                        frontier.push(c);
                    }
                }
            }
            frontier.sort_unstable();
            frontier.dedup();
            match frontier.choose(&mut self.rng) {
                Some(&next) => chosen.push(next),
                None => break,
            }
        }
        chosen.sort_unstable();
        chosen
    }

    /// A join-consistent tuple: one row index per table of `subtree`, chosen
    /// so joined fk/pk values line up where possible.
    fn consistent_rows(&mut self, subtree: &[usize]) -> Vec<(usize, usize)> {
        let graph = self.db.graph();
        // Process top-down (topo order restricted to the subtree): the parent
        // row determines candidate child rows.
        let order: Vec<usize> = graph
            .topo_order()
            .iter()
            .copied()
            .filter(|t| subtree.contains(t))
            .collect();
        let mut picked: Vec<(usize, usize)> = Vec::new();
        for &t in &order {
            let table = self.db.table(t);
            let parent_pick = graph
                .parent(t)
                .and_then(|p| picked.iter().find(|(pt, _)| *pt == p).copied());
            let row = match parent_pick {
                Some((p, prow)) => {
                    let pk_idx = self.db.table(p).schema().pk_index().expect("parent pk");
                    let pk = self.db.table(p).column(pk_idx);
                    let fk_name = graph.fk_column(t).expect("non-root fk");
                    let fk = table.column(table.schema().column_index(fk_name).expect("fk col"));
                    // The parent's key as a code of the child's fk dictionary;
                    // a NULL or absent key (or an empty parent) matches no row.
                    let key = match pk.codes().get(prow) {
                        Some(&code) if code != NULL_CODE => {
                            fk.domain().code_of(pk.domain().value(code))
                        }
                        _ => None,
                    };
                    let matches: Vec<usize> = (0..table.num_rows())
                        .filter(|&r| Some(fk.code(r)) == key)
                        .collect();
                    match matches.choose(&mut self.rng) {
                        Some(&r) => r,
                        None => self.rng.gen_range(0..table.num_rows().max(1)),
                    }
                }
                None => self.rng.gen_range(0..table.num_rows().max(1)),
            };
            picked.push((t, row));
        }
        picked
    }

    /// One MSCN-style multi-relation query: joins drawn from `0..=max_joins`,
    /// per-table filter counts from `0..=n_content`, literals from a
    /// join-consistent tuple.
    pub fn multi_query(&mut self, max_joins: usize) -> Query {
        let joins = self.rng.gen_range(0..=max_joins);
        let subtree = self.random_subtree(joins + 1);
        let rows = self.consistent_rows(&subtree);
        let mut predicates = Vec::new();
        for &(t, row) in &rows {
            let table = self.db.table(t);
            if table.num_rows() == 0 {
                continue;
            }
            let content: Vec<usize> = table
                .schema()
                .content_indices()
                .into_iter()
                .filter(|&ci| !table.column(ci).domain().is_empty())
                .collect();
            if content.is_empty() {
                continue;
            }
            let n_f = self.rng.gen_range(0..=content.len());
            let cols: Vec<usize> = content
                .choose_multiple(&mut self.rng, n_f)
                .copied()
                .collect();
            for ci in cols {
                let op = *RANGE_OPS.choose(&mut self.rng).expect("ops");
                let column = table.column(ci);
                let mut code = column.code(row);
                if code == NULL_CODE {
                    code = self.rng.gen_range(0..column.domain().len().max(1)) as u32;
                }
                let literal = column.domain().value(code).clone();
                predicates.push(Predicate {
                    table: table.name().to_string(),
                    column: table.schema().columns[ci].name.clone(),
                    constraint: Constraint::Compare(op, literal),
                });
            }
        }
        let tables = subtree
            .iter()
            .map(|&t| self.db.table(t).name().to_string())
            .collect();
        Query::join(tables, predicates)
    }

    /// A workload of `n` MSCN-style queries.
    pub fn multi_workload(&mut self, n: usize, max_joins: usize) -> Vec<Query> {
        (0..n).map(|_| self.multi_query(max_joins)).collect()
    }

    /// A JOB-light-style test workload: `n` join queries over 2–6 relations
    /// with 1–4 filters total, mirroring the benchmark's join-size mix.
    pub fn job_light_style(&mut self, n: usize) -> Vec<Query> {
        let graph = self.db.graph();
        let max_tables = graph.len().min(6);
        (0..n)
            .map(|_| {
                let size = self.rng.gen_range(2..=max_tables.max(2));
                let subtree = self.random_subtree(size);
                let rows = self.consistent_rows(&subtree);
                let total_filters = self.rng.gen_range(1..=4usize);
                let mut predicates = Vec::new();
                let mut used: HashSet<(usize, usize)> = HashSet::new();
                for _ in 0..total_filters {
                    let &(t, row) = rows.choose(&mut self.rng).expect("rows non-empty");
                    let table = self.db.table(t);
                    if table.num_rows() == 0 {
                        continue;
                    }
                    let content: Vec<usize> = table
                        .schema()
                        .content_indices()
                        .into_iter()
                        .filter(|&ci| !table.column(ci).domain().is_empty())
                        .collect();
                    if content.is_empty() {
                        continue;
                    }
                    let ci = *content.choose(&mut self.rng).expect("content");
                    if !used.insert((t, ci)) {
                        continue;
                    }
                    let op = *RANGE_OPS.choose(&mut self.rng).expect("ops");
                    let column = table.column(ci);
                    let mut code = column.code(row);
                    if code == NULL_CODE {
                        code = self.rng.gen_range(0..column.domain().len().max(1)) as u32;
                    }
                    let literal = column.domain().value(code).clone();
                    predicates.push(Predicate {
                        table: table.name().to_string(),
                        column: table.schema().columns[ci].name.clone(),
                        constraint: Constraint::Compare(op, literal),
                    });
                }
                let tables = subtree
                    .iter()
                    .map(|&t| self.db.table(t).name().to_string())
                    .collect();
                Query::join(tables, predicates)
            })
            .collect()
    }
}

/// Remove duplicate queries (by rendered SQL), preserving order — the paper's
/// test workloads "are ensured to have no duplicate query".
pub fn dedup_queries(queries: Vec<Query>) -> Vec<Query> {
    let mut seen = HashSet::new();
    queries
        .into_iter()
        .filter(|q| seen.insert(q.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_cardinality;
    use sam_storage::paper_example;

    #[test]
    fn single_queries_have_1_to_5_filters() {
        let db = paper_example::figure3_database();
        let mut g = WorkloadGenerator::new(&db, 7);
        for _ in 0..50 {
            let q = g.single_query("A", None);
            assert!(q.num_predicates() >= 1);
            assert!(q.num_predicates() <= 5);
            assert!(q.is_single_relation());
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let db = paper_example::figure3_database();
        let a: Vec<String> = WorkloadGenerator::new(&db, 42)
            .single_workload("A", 10)
            .iter()
            .map(|q| q.to_string())
            .collect();
        let b: Vec<String> = WorkloadGenerator::new(&db, 42)
            .single_workload("A", 10)
            .iter()
            .map(|q| q.to_string())
            .collect();
        assert_eq!(a, b);
        let c: Vec<String> = WorkloadGenerator::new(&db, 43)
            .single_workload("A", 10)
            .iter()
            .map(|q| q.to_string())
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn multi_queries_form_connected_subtrees() {
        let db = paper_example::figure3_database();
        let mut g = WorkloadGenerator::new(&db, 11);
        for _ in 0..50 {
            let q = g.multi_query(2);
            assert!(q.table_closure(db.graph()).is_some());
            assert!(q.num_joins() <= 2);
            // All queries must be evaluable.
            evaluate_cardinality(&db, &q).unwrap();
        }
    }

    #[test]
    fn literals_from_tuples_give_nonzero_cards_often() {
        // Because literals come from real tuples, equality-only
        // single-relation queries are satisfiable by construction.
        let db = paper_example::figure3_database();
        let mut g = WorkloadGenerator::new(&db, 3);
        let nonzero = (0..100)
            .filter(|_| {
                let q = g.single_query("A", None);
                evaluate_cardinality(&db, &q).unwrap() > 0
            })
            .count();
        assert!(nonzero >= 95, "only {nonzero}/100 queries non-empty");
    }

    #[test]
    fn coverage_windows_restrict_literals() {
        let db = paper_example::figure3_database();
        let t = db.table_by_name("A").unwrap();
        // Content column "a" has domain {m, n}; ratio 0.5 → window of 1 code.
        let cov = CoverageWindows::centered(t, 0.5);
        let mut g = WorkloadGenerator::new(&db, 5);
        for _ in 0..30 {
            let q = g.single_query("A", Some(&cov));
            for p in &q.predicates {
                // All literals must come from the single allowed code.
                assert_eq!(p.literals().len(), 1);
            }
        }
    }

    #[test]
    fn dedup_removes_repeats() {
        let db = paper_example::figure3_database();
        let mut g = WorkloadGenerator::new(&db, 9);
        let qs = g.single_workload("A", 200);
        let deduped = dedup_queries(qs.clone());
        assert!(deduped.len() < qs.len(), "tiny domain must repeat");
        let strings: Vec<String> = deduped.iter().map(|q| q.to_string()).collect();
        let set: HashSet<&String> = strings.iter().collect();
        assert_eq!(set.len(), strings.len());
    }

    #[test]
    fn job_light_style_queries_are_joins() {
        let db = paper_example::figure3_database();
        let mut g = WorkloadGenerator::new(&db, 21);
        for q in g.job_light_style(20) {
            assert!(q.tables.len() >= 2);
            evaluate_cardinality(&db, &q).unwrap();
        }
    }
}
