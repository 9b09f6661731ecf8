//! Group-and-Merge join-key assignment (paper §4.3.2, Algorithm 3).
//!
//! Theorem 2: FOJ rows sharing a join key `T.pk` agree on `T.pk`'s
//! *identifier columns*. The algorithm therefore groups the weighted FOJ
//! samples by identifier-column values and greedily merges rows within each
//! group, emitting one primary-key value whenever the merged scaled weights
//! reach 1 — so the generated base relations, joined back together, recover
//! the full outer join the model sampled.
//!
//! Multiple join keys (deeper trees) are handled recursively, as the paper
//! sketches: keys are assigned top-down; the grouping for a deeper table's
//! key includes the already-assigned ancestor keys, so merges never straddle
//! distinct parent tuples. A sampled row whose scaled weight exceeds 1
//! splits into multiple *pieces*, each carrying a fraction of the row's
//! mass and its own key — this is how one high-weight sample legitimately
//! yields several primary-key tuples (the paper's Group 3 walk-through).
//!
//! **Leftover handling (extension beyond the paper).** Algorithm 3 as
//! written silently drops group tails whose merged weight never reaches 1.
//! When identifier combinations are diverse (every group's total weight
//! `|T|·P(group)` can sit below 1), that would discard most of the mass. We
//! instead resample the leftover sets *systematically by weight*: about
//! `Σ tails` of them receive keys, and their pieces get a Horvitz–Thompson
//! boost `1/π` recorded per pk table so that descendant-relation masses stay
//! unbiased. With concentrated groups (the paper's regime) tails are rare
//! and this path is almost never taken.
//!
//! **Layout.** Pieces are struct-of-arrays: a row and a fraction each, and a
//! key (0 for none) and a boost per pk table. Each pk table's pass copies
//! the pieces it keeps into fresh arrays, in the order it emits them, and
//! groups the eligible ones with one stable sort of their indices over a
//! flat key buffer (ancestor keys, then identifier bins): ascending groups,
//! piece order inside each. No piece owns a vector.

use crate::weights::WeightedSamples;
use sam_ar::{ArSchema, ModelRow};
use std::ops::Range;

const EPS: f64 = 1e-9;

/// A fragment of a sampled FOJ row with its assigned keys.
#[derive(Debug, Clone, Copy)]
pub struct PieceRef<'a> {
    /// Index into the sampled rows.
    pub row: usize,
    /// Fraction of the original row's mass carried by this piece.
    pub fraction: f64,
    keys: &'a [u64],
    boost: &'a [f64],
    /// Per table: its column in `keys` and `boost` (pk tables only).
    column: &'a [Option<usize>],
}

impl PieceRef<'_> {
    /// The primary-key value assigned for table `t`, if any.
    pub fn key(&self, t: usize) -> Option<u64> {
        self.column[t].map(|c| self.keys[c]).filter(|&k| k > 0)
    }

    /// Horvitz–Thompson boost applied to the masses of table `t`'s
    /// *descendants* (1.0 unless the piece survived leftover resampling).
    pub fn boost(&self, t: usize) -> f64 {
        self.column[t].map_or(1.0, |c| self.boost[c])
    }

    /// Effective emission weight of table `t` for this piece: the scaled
    /// sample weight times the piece fraction times the boosts of `t`'s pk
    /// ancestors, in the order of `ancestors` (`JoinGraph::ancestors(t)`).
    pub fn effective_weight(
        &self,
        weights: &WeightedSamples,
        t: usize,
        ancestors: &[usize],
    ) -> f64 {
        let mut w = weights.scaled(self.row, t) * self.fraction;
        for &a in ancestors {
            w *= self.boost(a);
        }
        w
    }
}

/// Pieces as struct-of-arrays: piece `i`'s keys and boosts are row `i` of
/// the `width`-wide `keys` and `boost`, one column per pk table.
#[derive(Debug, Clone, Default)]
struct Pieces {
    width: usize,
    row: Vec<usize>,
    fraction: Vec<f64>,
    keys: Vec<u64>,
    boost: Vec<f64>,
}

impl Pieces {
    fn get<'a>(&'a self, i: usize, column: &'a [Option<usize>]) -> PieceRef<'a> {
        let cells = i * self.width..(i + 1) * self.width;
        let (keys, boost) = (&self.keys[cells.clone()], &self.boost[cells]);
        PieceRef {
            row: self.row[i],
            fraction: self.fraction[i],
            keys,
            boost,
            column,
        }
    }

    /// Append `src`'s piece `i` with `fraction`; `stamp` sets its key and
    /// boost in column `c`. Only column `c`'s own pass writes it, so a
    /// carved piece stamped with boost 1.0 keeps the boost it had.
    fn push(&mut self, src: &Pieces, i: usize, fraction: f64, c: usize, stamp: Option<(u64, f64)>) {
        let (at, cells) = (self.keys.len(), i * self.width..(i + 1) * self.width);
        self.row.push(src.row[i]);
        self.fraction.push(fraction);
        self.keys.extend_from_slice(&src.keys[cells.clone()]);
        self.boost.extend_from_slice(&src.boost[cells]);
        if let Some((key, boost)) = stamp {
            (self.keys[at + c], self.boost[at + c]) = (key, boost);
        }
    }
}

/// The stable lexicographic order of `len` keys of `width` digits, key `i`
/// being `digits[i·width..(i + 1)·width]`: an LSD radix sort, one stable
/// counting pass per digit from the last.
pub(crate) fn stable_order(len: usize, width: usize, digits: &[u64]) -> Vec<usize> {
    let (mut order, mut next): (Vec<usize>, _) = ((0..len).collect(), vec![0; len]);
    for d in (0..width).rev() {
        let digit: Vec<usize> = (0..len).map(|i| digits[i * width + d] as usize).collect();
        let mut starts = vec![0; digit.iter().max().map_or(1, |m| m + 2)];
        for &v in &digit {
            starts[v + 1] += 1;
        }
        for v in 1..starts.len() {
            starts[v] += starts[v - 1];
        }
        for &i in &order {
            next[starts[digit[i]]] = i;
            starts[digit[i]] += 1;
        }
        std::mem::swap(&mut order, &mut next);
    }
    order
}

/// A generated primary-key tuple.
#[derive(Debug, Clone)]
pub struct PkTuple {
    /// The assigned key (1-based).
    pub key: u64,
    /// Representative sampled row (identifier columns — hence the pk table's
    /// content — are shared by every merged row).
    pub row: usize,
    /// The parent key this tuple's own fk points at (None for the root).
    pub parent_key: Option<u64>,
}

/// Result of key assignment.
#[derive(Debug, Clone)]
pub struct AssignedKeys {
    pieces: Pieces,
    column: Vec<Option<usize>>,
    /// Every pk tuple; table `t`'s are `pk_tuples[pk_ranges[t]]`.
    pk_tuples: Vec<PkTuple>,
    pk_ranges: Vec<Range<usize>>,
}

impl AssignedKeys {
    /// Final row pieces with per-table keys.
    pub fn pieces(&self) -> impl ExactSizeIterator<Item = PieceRef<'_>> {
        (0..self.pieces.row.len()).map(|i| self.pieces.get(i, &self.column))
    }

    /// Table `t`'s generated pk tuples (empty for tables nothing references).
    pub fn pk_tuples(&self, t: usize) -> &[PkTuple] {
        &self.pk_tuples[self.pk_ranges[t].clone()]
    }
}

/// Group-and-Merge over weighted samples.
pub fn assign_keys_group_merge(
    schema: &ArSchema,
    rows: &[ModelRow],
    weights: &WeightedSamples,
) -> AssignedKeys {
    let graph = schema.graph();
    let n = graph.len();
    // Tables whose pk is referenced, root-first; each owns a column.
    let mut column = vec![None; n];
    let pk_tables = graph
        .topo_order()
        .iter()
        .filter(|&&t| !graph.children(t).is_empty());
    for (c, &p) in pk_tables.clone().enumerate() {
        column[p] = Some(c);
    }
    let width = pk_tables.clone().count();
    let mut pieces = Pieces {
        width,
        row: (0..rows.len()).collect(),
        fraction: vec![1.0; rows.len()],
        keys: vec![0; rows.len() * width],
        boost: vec![1.0; rows.len() * width],
    };
    let (mut pk_tuples, mut pk_ranges) = (Vec::new(), vec![0..0; n]);

    for (c, &p) in pk_tables.enumerate() {
        let identifier = schema.identifier_columns(p);
        let ancestors = graph.ancestors(p);
        let parent = graph.parent(p);
        let first_tuple = pk_tuples.len();
        let mut done = Pieces {
            width,
            ..Pieces::default()
        };

        // Partition pieces: those eligible for a p-key get a grouping key
        // (ancestor keys, identifier bins); the rest pass through in order.
        let key_width = ancestors.len() + identifier.len();
        let (mut eligible, mut group_keys) = (Vec::new(), Vec::new());
        for i in 0..pieces.row.len() {
            let piece = pieces.get(i, &column);
            if !weights.participates(piece.row, p)
                || parent.is_some_and(|pp| piece.key(pp).is_none())
            {
                done.push(&pieces, i, piece.fraction, c, None);
                continue;
            }
            eligible.push(i);
            group_keys.extend(ancestors.iter().map(|&a| piece.key(a).unwrap_or(0)));
            group_keys.extend(
                identifier
                    .iter()
                    .map(|&col| u64::from(rows[piece.row][col])),
            );
        }
        let group_key = |e: usize| &group_keys[e * key_width..(e + 1) * key_width];
        let order = stable_order(eligible.len(), key_width, &group_keys);

        let mut counter: u64 = 0;
        // `(piece, fraction)` of every leftover set — merged sets that never
        // filled a unit — then of the set being merged; `leftovers` holds
        // each leftover set's range of `tail` and its weight.
        let (mut tail, mut leftovers) = (Vec::new(), Vec::new());
        for group in order.chunk_by(|&a, &b| group_key(a) == group_key(b)) {
            let (set_start, mut acc) = (tail.len(), 0.0f64);
            for &e in group {
                let piece = pieces.get(eligible[e], &column);
                let mut fraction = piece.fraction;
                let row_unit = piece.effective_weight(weights, p, &ancestors) / fraction.max(EPS);
                let mut w = row_unit * fraction;
                // Carve unit chunks while the accumulated mass fills keys.
                while acc + w >= 1.0 - EPS {
                    let take = (1.0 - acc).max(0.0);
                    let take_fraction = if row_unit > 0.0 { take / row_unit } else { 0.0 };
                    counter += 1;
                    // Everything accumulated so far merges under this key,
                    // then the chunk of this piece belonging to it.
                    for (j, f) in tail.drain(set_start..) {
                        done.push(&pieces, j, f, c, Some((counter, 1.0)));
                    }
                    pk_tuples.push(PkTuple {
                        key: counter,
                        row: piece.row,
                        parent_key: parent
                            .map(|pp| piece.key(pp).expect("eligibility checked parent key")),
                    });
                    let head = take_fraction.min(fraction);
                    fraction -= head;
                    done.push(&pieces, eligible[e], head, c, Some((counter, 1.0)));
                    w -= take;
                    acc = 0.0;
                    if fraction <= EPS {
                        break;
                    }
                }
                if fraction > EPS && w > EPS {
                    acc += w;
                    tail.push((eligible[e], fraction));
                }
            }
            if acc > EPS && tail.len() > set_start {
                leftovers.push((set_start..tail.len(), acc));
            } else {
                tail.truncate(set_start);
            }
        }

        // Systematic weighted resampling of leftover sets (see module docs).
        let total_tail: f64 = leftovers.iter().map(|(_, w)| w).sum();
        let n_keys = total_tail.round() as u64;
        let spacing = total_tail / n_keys as f64;
        let (mut next_mark, mut cum) = (spacing / 2.0, 0.0f64);
        for (set, w) in leftovers {
            cum += w;
            let mut stamp = None;
            if n_keys > 0 && next_mark < cum - EPS {
                // Consume every mark inside this set (a set wider than the
                // spacing would deserve several keys; we assign one — the
                // case requires w ≈ 1 and is vanishingly rare).
                while next_mark < cum - EPS {
                    next_mark += spacing;
                }
                counter += 1;
                // Inclusion probability π = w / spacing (≤ 1 since w < 1
                // and spacing ≈ 1); boost descendants by 1/π.
                let pi = (w / spacing).min(1.0);
                let rep = pieces.get(tail[set.start].0, &column);
                pk_tuples.push(PkTuple {
                    key: counter,
                    row: rep.row,
                    parent_key: parent.map(|pp| rep.key(pp).expect("parent key present")),
                });
                stamp = Some((counter, 1.0 / pi.max(EPS)));
            }
            for &(j, f) in &tail[set] {
                done.push(&pieces, j, f, c, stamp);
            }
        }
        pk_ranges[p] = first_tuple..pk_tuples.len();
        pieces = done;
    }

    AssignedKeys {
        pieces,
        column,
        pk_tuples,
        pk_ranges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::weigh_samples;
    use sam_ar::{ArSchema, EncodingOptions};
    use sam_storage::{paper_example, DatabaseStats};

    fn schema() -> ArSchema {
        let db = paper_example::figure3_database();
        let stats = DatabaseStats::from_database(&db);
        ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap()
    }

    /// The Figure 3(c) samples: see weights.rs tests for the layout.
    fn figure3c_rows() -> Vec<ModelRow> {
        vec![
            vec![0, 1, 1, 0, 1, 2, 0],
            vec![0, 1, 2, 1, 1, 2, 0],
            vec![0, 1, 2, 2, 1, 2, 1],
            vec![1, 0, 0, 0, 0, 0, 0],
        ]
    }

    #[test]
    fn paper_walkthrough_assigns_four_keys() {
        let s = schema();
        let rows = figure3c_rows();
        let w = weigh_samples(&s, &rows);
        let assigned = assign_keys_group_merge(&s, &rows, &w);
        // |A| = 4 keys: one from group 1, one merged from group 2, two from
        // the weight-2 sample in group 3.
        assert_eq!(assigned.pk_tuples(0).len(), 4);
        let keys: Vec<u64> = assigned.pk_tuples(0).iter().map(|t| t.key).collect();
        assert_eq!(keys, vec![1, 2, 3, 4]);
        // Root tuples carry no parent key.
        assert!(assigned.pk_tuples(0).iter().all(|t| t.parent_key.is_none()));
        // No keys for B/C (nothing references them).
        assert!(assigned.pk_tuples(1).is_empty());
        assert!(assigned.pk_tuples(2).is_empty());
    }

    #[test]
    fn samples_two_and_three_merge_under_one_key() {
        let s = schema();
        let rows = figure3c_rows();
        let w = weigh_samples(&s, &rows);
        let assigned = assign_keys_group_merge(&s, &rows, &w);
        let key_of = |row: usize| -> Vec<u64> {
            assigned
                .pieces()
                .filter(|p| p.row == row)
                .filter_map(|p| p.key(0))
                .collect()
        };
        let k1 = key_of(1);
        let k2 = key_of(2);
        assert_eq!(k1.len(), 1);
        assert_eq!(k1, k2, "merged samples must share the key");
    }

    #[test]
    fn high_weight_sample_splits_into_two_keys() {
        let s = schema();
        let rows = figure3c_rows();
        let w = weigh_samples(&s, &rows);
        let assigned = assign_keys_group_merge(&s, &rows, &w);
        let keys: Vec<u64> = assigned
            .pieces()
            .filter(|p| p.row == 3)
            .filter_map(|p| p.key(0))
            .collect();
        assert_eq!(keys.len(), 2, "weight-2 sample yields two pk tuples");
        assert_ne!(keys[0], keys[1]);
        for p in assigned.pieces().filter(|p| p.row == 3) {
            assert!((p.fraction - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn groups_never_merge_across_identifier_values() {
        let s = schema();
        let rows = figure3c_rows();
        let w = weigh_samples(&s, &rows);
        let assigned = assign_keys_group_merge(&s, &rows, &w);
        let k0: Vec<u64> = assigned
            .pieces()
            .filter(|p| p.row == 0)
            .filter_map(|p| p.key(0))
            .collect();
        let k1: Vec<u64> = assigned
            .pieces()
            .filter(|p| p.row == 1)
            .filter_map(|p| p.key(0))
            .collect();
        assert!(!k0.is_empty() && !k1.is_empty());
        assert_ne!(k0[0], k1[0]);
    }

    #[test]
    fn leftover_resampling_assigns_about_total_tail_keys() {
        // Three distinct groups with weight 0.4 each: ~1 key in total, and
        // the surviving pieces carry a boost ≈ 1/0.4 ≈ 2.5... capped by π≤1.
        let s = schema();
        let rows: Vec<ModelRow> = vec![
            vec![0, 1, 1, 0, 1, 1, 0],
            vec![0, 1, 1, 1, 1, 2, 1],
            vec![1, 0, 0, 0, 0, 0, 0],
        ];
        let mut w = weigh_samples(&s, &rows);
        for r in 0..3 {
            w.set_scaled(r, 0, 0.4);
        }
        let assigned = assign_keys_group_merge(&s, &rows, &w);
        assert_eq!(assigned.pk_tuples(0).len(), 1);
        // The keyed piece is boosted; unkeyed pieces are not.
        for p in assigned.pieces() {
            if p.key(0).is_some() {
                assert!(p.boost(0) > 1.0);
            } else {
                assert_eq!(p.boost(0), 1.0);
            }
        }
    }

    #[test]
    fn leftover_mass_is_preserved_in_expectation() {
        // Many small groups: #keys ≈ |T| and total boosted child mass stays
        // close to the unboosted total.
        let s = schema();
        // 40 rows alternating identifier signatures, each weight 0.1 for A.
        let mut rows: Vec<ModelRow> = Vec::new();
        for i in 0..40u32 {
            // Vary F_B between 1 and 2 to alternate identifier groups.
            let fb = 1 + (i % 2);
            rows.push(vec![0, 1, fb, (i % 3), 1, 1, (i % 2)]);
        }
        let mut w = weigh_samples(&s, &rows);
        for r in 0..rows.len() {
            w.set_scaled(r, 0, 0.1);
            w.set_scaled(r, 1, 0.075); // B mass: 3 total
        }
        let assigned = assign_keys_group_merge(&s, &rows, &w);
        // 40 × 0.1 = 4 keys expected (two groups of weight 2 each → exactly
        // 2 keys per group by carving).
        assert_eq!(assigned.pk_tuples(0).len(), 4);
        // Every piece that got a key contributes B mass; total effective B
        // mass over keyed pieces ≈ 3.
        let ancestors = s.graph().ancestors(1);
        let total_b: f64 = assigned
            .pieces()
            .filter(|p| p.key(0).is_some())
            .map(|p| p.effective_weight(&w, 1, &ancestors))
            .sum();
        assert!((total_b - 3.0).abs() < 0.5, "B mass {total_b}");
    }
}
