//! Sorted dictionaries of distinct column values.
//!
//! Every column stores `u32` *codes* into a [`Domain`]: the sorted list of the
//! column's distinct values. Because the domain is sorted, a range predicate
//! on values maps to a contiguous code interval — the representation both the
//! query evaluator and the autoregressive model operate on.

use crate::value::Value;
use std::sync::Arc;

/// Sentinel code representing SQL NULL inside dictionary-encoded columns.
pub const NULL_CODE: u32 = u32::MAX;

/// A sorted, deduplicated dictionary of non-null values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    values: Vec<Value>,
}

impl Domain {
    /// Build a domain from arbitrary values (sorted and deduplicated; NULLs
    /// are dropped — NULL is represented by [`NULL_CODE`], not a dictionary
    /// entry).
    pub fn new(mut values: Vec<Value>) -> Self {
        values.retain(|v| !v.is_null());
        values.sort_unstable();
        values.dedup();
        Domain { values }
    }

    /// A domain from values that are already sorted, distinct and non-null
    /// (a subset of another domain in its order, or sorted distinct
    /// integers), without sorting them again.
    pub(crate) fn from_sorted(values: Vec<Value>) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(values.iter().all(|v| !v.is_null()));
        Domain { values }
    }

    /// Domain of consecutive integers `lo..=hi`.
    pub fn int_range(lo: i64, hi: i64) -> Self {
        Domain {
            values: (lo..=hi).map(Value::Int).collect(),
        }
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True iff the domain holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The sorted values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value at `code`.
    ///
    /// # Panics
    /// Panics if `code` is out of range (including [`NULL_CODE`]).
    pub fn value(&self, code: u32) -> &Value {
        &self.values[code as usize]
    }

    /// The code of `v`, if the exact value is in the dictionary.
    pub fn code_of(&self, v: &Value) -> Option<u32> {
        self.values.binary_search(v).ok().map(|i| i as u32)
    }

    /// For every code of `self`, the code of the equal value in `target`, or
    /// [`NULL_CODE`] where `target` lacks it, in one merge of the two sorted
    /// dictionaries. This is how a child's fk codes meet its parent's pk
    /// codes: a join on codes, never on [`Value`]s.
    pub fn codes_in(&self, target: &Domain) -> Vec<u32> {
        let mut out = vec![NULL_CODE; self.values.len()];
        let (mut i, mut j) = (0, 0);
        while i < self.values.len() && j < target.values.len() {
            match self.values[i].cmp(&target.values[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out[i] = j as u32;
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Codes whose values satisfy `value <= bound`, as a half-open code range.
    pub fn codes_le(&self, bound: &Value) -> std::ops::Range<u32> {
        let end = self.values.partition_point(|v| v <= bound);
        0..end as u32
    }

    /// Codes whose values satisfy `value < bound`.
    pub fn codes_lt(&self, bound: &Value) -> std::ops::Range<u32> {
        let end = self.values.partition_point(|v| v < bound);
        0..end as u32
    }

    /// Codes whose values satisfy `value >= bound`.
    pub fn codes_ge(&self, bound: &Value) -> std::ops::Range<u32> {
        let start = self.values.partition_point(|v| v < bound);
        start as u32..self.values.len() as u32
    }

    /// Codes whose values satisfy `value > bound`.
    pub fn codes_gt(&self, bound: &Value) -> std::ops::Range<u32> {
        let start = self.values.partition_point(|v| v <= bound);
        start as u32..self.values.len() as u32
    }

    /// Smallest value, if any.
    pub fn min(&self) -> Option<&Value> {
        self.values.first()
    }

    /// Largest value, if any.
    pub fn max(&self) -> Option<&Value> {
        self.values.last()
    }

    /// Wrap in an [`Arc`] for sharing between columns and models.
    pub fn shared(self) -> Arc<Domain> {
        Arc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom() -> Domain {
        Domain::new(vec![
            Value::Int(5),
            Value::Int(1),
            Value::Int(3),
            Value::Int(3),
            Value::Null,
        ])
    }

    #[test]
    fn builds_sorted_deduped_without_nulls() {
        let d = dom();
        assert_eq!(d.len(), 3);
        assert_eq!(d.values(), &[Value::Int(1), Value::Int(3), Value::Int(5)]);
    }

    #[test]
    fn code_round_trip() {
        let d = dom();
        for (i, v) in d.values().iter().enumerate() {
            assert_eq!(d.code_of(v), Some(i as u32));
            assert_eq!(d.value(i as u32), v);
        }
        assert_eq!(d.code_of(&Value::Int(2)), None);
    }

    #[test]
    fn range_code_mapping() {
        let d = dom(); // values 1, 3, 5 at codes 0, 1, 2
        assert_eq!(d.codes_le(&Value::Int(3)), 0..2);
        assert_eq!(d.codes_lt(&Value::Int(3)), 0..1);
        assert_eq!(d.codes_ge(&Value::Int(3)), 1..3);
        assert_eq!(d.codes_gt(&Value::Int(3)), 2..3);
        // Bounds not present in the dictionary still partition correctly.
        assert_eq!(d.codes_le(&Value::Int(4)), 0..2);
        assert_eq!(d.codes_ge(&Value::Int(0)), 0..3);
        assert_eq!(d.codes_ge(&Value::Int(6)), 3..3);
    }

    #[test]
    fn codes_in_merges_sorted_dictionaries() {
        let d = dom(); // 1, 3, 5
        let wide = Domain::int_range(0, 4); // 0..=4
        assert_eq!(d.codes_in(&wide), vec![1, 3, NULL_CODE]);
        assert_eq!(
            wide.codes_in(&d),
            vec![NULL_CODE, 0, NULL_CODE, 1, NULL_CODE]
        );
        assert_eq!(d.codes_in(&d), vec![0, 1, 2]);
        assert_eq!(d.codes_in(&Domain::new(vec![])), vec![NULL_CODE; 3]);
        // Equality is `Value`'s `Ord`: an Int never equals a Float.
        let floats = Domain::new(vec![Value::Float(1.0), Value::Float(3.0)]);
        assert_eq!(d.codes_in(&floats), vec![NULL_CODE; 3]);
    }

    #[test]
    fn int_range_constructor() {
        let d = Domain::int_range(2, 4);
        assert_eq!(d.len(), 3);
        assert_eq!(d.value(0), &Value::Int(2));
        assert_eq!(d.value(2), &Value::Int(4));
    }

    #[test]
    fn min_max() {
        let d = dom();
        assert_eq!(d.min(), Some(&Value::Int(1)));
        assert_eq!(d.max(), Some(&Value::Int(5)));
        assert_eq!(Domain::new(vec![]).min(), None);
    }
}
