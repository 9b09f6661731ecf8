//! Dictionary-encoded columns.

use crate::domain::{Domain, NULL_CODE};
use crate::value::Value;
use std::sync::Arc;

/// A dictionary-encoded column: a shared [`Domain`] plus one `u32` code per
/// row ([`NULL_CODE`] encodes SQL NULL).
#[derive(Debug, Clone)]
pub struct Column {
    domain: Arc<Domain>,
    codes: Vec<u32>,
}

impl Column {
    /// Build from a domain and codes.
    ///
    /// # Panics
    /// Panics (debug builds) if any non-NULL code is out of domain range.
    pub fn new(domain: Arc<Domain>, codes: Vec<u32>) -> Self {
        debug_assert!(codes
            .iter()
            .all(|&c| c == NULL_CODE || (c as usize) < domain.len()));
        Column { domain, codes }
    }

    /// Build from raw values, deriving the domain from the distinct values.
    pub fn from_values(values: &[Value]) -> Self {
        let domain = Domain::new(values.to_vec()).shared();
        let codes = values
            .iter()
            .map(|v| {
                if v.is_null() {
                    NULL_CODE
                } else {
                    domain.code_of(v).expect("value must be in derived domain")
                }
            })
            .collect();
        Column { domain, codes }
    }

    /// Build from raw values against a pre-existing (possibly wider) domain.
    ///
    /// Returns `None` if some non-null value is absent from `domain`.
    pub fn from_values_with_domain(values: &[Value], domain: Arc<Domain>) -> Option<Self> {
        let mut codes = Vec::with_capacity(values.len());
        for v in values {
            if v.is_null() {
                codes.push(NULL_CODE);
            } else {
                codes.push(domain.code_of(v)?);
            }
        }
        Some(Column { domain, codes })
    }

    /// Build from codes into a wider `base` domain ([`NULL_CODE`] for
    /// NULL), over the dictionary of the values present — what
    /// [`Column::from_values`] derives from the decoded values, in one pass
    /// over `base` instead of a sort.
    pub fn from_base_codes(base: &Domain, mut codes: Vec<u32>) -> Self {
        let mut remap = vec![NULL_CODE; base.len()];
        for &c in &codes {
            if c != NULL_CODE {
                remap[c as usize] = 0;
            }
        }
        let mut values = Vec::new();
        for (c, slot) in remap.iter_mut().enumerate() {
            if *slot != NULL_CODE {
                *slot = values.len() as u32;
                values.push(base.value(c as u32).clone());
            }
        }
        for c in &mut codes {
            if *c != NULL_CODE {
                *c = remap[*c as usize];
            }
        }
        Column {
            domain: Domain::from_sorted(values).shared(),
            codes,
        }
    }

    /// Build from integers (`None` for NULL): the same column as
    /// [`Column::from_values`] of the matching [`Value::Int`]s.
    pub fn from_ints(ints: &[Option<i64>]) -> Self {
        let mut distinct: Vec<i64> = ints.iter().flatten().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        let codes = ints
            .iter()
            .map(|v| match v {
                Some(k) => distinct
                    .binary_search(k)
                    .expect("value is in the dictionary") as u32,
                None => NULL_CODE,
            })
            .collect();
        let values = distinct.into_iter().map(Value::Int).collect();
        Column {
            domain: Domain::from_sorted(values).shared(),
            codes,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The column's dictionary.
    pub fn domain(&self) -> &Arc<Domain> {
        &self.domain
    }

    /// The raw code for a row.
    pub fn code(&self, row: usize) -> u32 {
        self.codes[row]
    }

    /// All raw codes.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The decoded value for a row (NULL-aware).
    pub fn value(&self, row: usize) -> Value {
        let c = self.codes[row];
        if c == NULL_CODE {
            Value::Null
        } else {
            self.domain.value(c).clone()
        }
    }

    /// Iterate decoded values.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        self.codes.iter().map(move |&c| {
            if c == NULL_CODE {
                Value::Null
            } else {
                self.domain.value(c).clone()
            }
        })
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.codes.iter().filter(|&&c| c == NULL_CODE).count()
    }

    /// Gather rows by index into a new column sharing the same domain.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather(&self, rows: &[usize]) -> Column {
        Column {
            domain: Arc::clone(&self.domain),
            codes: rows.iter().map(|&r| self.codes[r]).collect(),
        }
    }

    /// Per-code occurrence counts (`counts[code]`), ignoring NULLs.
    pub fn histogram(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.domain.len()];
        for &c in &self.codes {
            if c != NULL_CODE {
                counts[c as usize] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals() -> Vec<Value> {
        vec![
            Value::Int(3),
            Value::Int(1),
            Value::Null,
            Value::Int(3),
            Value::Int(7),
        ]
    }

    #[test]
    fn from_values_round_trips() {
        let vs = vals();
        let c = Column::from_values(&vs);
        assert_eq!(c.len(), 5);
        for (i, v) in vs.iter().enumerate() {
            assert_eq!(&c.value(i), v);
        }
    }

    #[test]
    fn null_handling() {
        let c = Column::from_values(&vals());
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.code(2), NULL_CODE);
        assert!(c.value(2).is_null());
        // NULL is not a dictionary entry.
        assert_eq!(c.domain().len(), 3);
    }

    #[test]
    fn histogram_counts_occurrences() {
        let c = Column::from_values(&vals()); // domain: 1, 3, 7
        assert_eq!(c.histogram(), vec![1, 2, 1]);
    }

    #[test]
    fn gather_preserves_domain_and_values() {
        let c = Column::from_values(&vals());
        let g = c.gather(&[4, 0, 2]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.value(0), Value::Int(7));
        assert_eq!(g.value(1), Value::Int(3));
        assert!(g.value(2).is_null());
        assert!(Arc::ptr_eq(g.domain(), c.domain()));
    }

    #[test]
    fn from_values_with_domain_rejects_unknown() {
        let wide = Domain::int_range(0, 10).shared();
        let ok = Column::from_values_with_domain(&[Value::Int(2)], Arc::clone(&wide));
        assert!(ok.is_some());
        let bad = Column::from_values_with_domain(&[Value::Int(99)], wide);
        assert!(bad.is_none());
    }

    #[test]
    fn from_base_codes_matches_from_values_of_the_decoded_values() {
        let base = Domain::int_range(10, 19);
        let codes = vec![7, 2, NULL_CODE, 7, 0, 9];
        let c = Column::from_base_codes(&base, codes.clone());
        let decoded: Vec<Value> = codes
            .iter()
            .map(|&k| match k {
                NULL_CODE => Value::Null,
                k => base.value(k).clone(),
            })
            .collect();
        let want = Column::from_values(&decoded);
        assert_eq!(c.domain().values(), want.domain().values());
        assert_eq!(c.codes(), want.codes());
        assert_eq!(c.domain().len(), 4);
        // No value present: an empty dictionary.
        let nulls = Column::from_base_codes(&base, vec![NULL_CODE; 2]);
        assert!(nulls.domain().is_empty());
        assert_eq!(nulls.null_count(), 2);
    }

    #[test]
    fn from_ints_matches_from_values() {
        let ints = [Some(5), None, Some(-3), Some(5), Some(12)];
        let c = Column::from_ints(&ints);
        let values: Vec<Value> = ints
            .iter()
            .map(|v| v.map_or(Value::Null, Value::Int))
            .collect();
        let want = Column::from_values(&values);
        assert_eq!(c.domain().values(), want.domain().values());
        assert_eq!(c.codes(), want.codes());
        assert!(Column::from_ints(&[]).is_empty());
    }
}
