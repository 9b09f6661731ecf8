//! Acceptance lock for the estimator's prefix trie: estimating a workload
//! on an estimator that already saw it must be *strictly cheaper* than
//! per-pass exact-prefix dedup, while returning bit-identical estimates.
//! Each request runs in a pass of its own, so requests share forward rows
//! only through the trie.
//!
//! This is the only test in this binary on purpose: it asserts on the
//! process-global `sam_obs` counters, which other tests would contaminate.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sam::ar::{ArModel, ArModelConfig, ArSchema, EncodingOptions, Estimator};
use sam::query::Query;
use sam::storage::{paper_example, DatabaseStats};

#[test]
fn shared_trie_strictly_reduces_forward_count() {
    let db = paper_example::figure3_database();
    let stats = DatabaseStats::from_database(&db);
    let schema = ArSchema::build(db.schema(), &stats, &[], &EncodingOptions::default()).unwrap();
    let model = ArModel::new(schema, &ArModelConfig::default()).freeze();

    let queries = [
        Query::join(vec!["A".into(), "B".into()], vec![]),
        Query::join(vec!["A".into(), "B".into(), "C".into()], vec![]),
        Query::single("A", vec![]),
    ];
    let counts = [16usize, 48, 7];
    let seeds = [101u64, 7, 3];
    let estimate = |estimator: &mut Estimator, k: usize| {
        estimator
            .estimate(&queries[k], counts[k], &mut StdRng::seed_from_u64(seeds[k]))
            .unwrap()
    };

    let forward_counter = sam::obs::counter("sam_forward_total");
    let trie_hit_counter = sam::obs::counter("sam_trie_hits_total");
    let mut estimator = Estimator::new(model);

    // Round 1: cold trie — every distinct prefix pays a forward row. The
    // first pass finds nothing cached; the later passes read what the
    // passes before them cached (every path starts at the root).
    let before = forward_counter.get();
    let hits_before = trie_hit_counter.get();
    let mut first = vec![estimate(&mut estimator, 0)];
    assert_eq!(
        trie_hit_counter.get() - hits_before,
        0,
        "nothing cached before round 1's first pass"
    );
    let hits_before = trie_hit_counter.get();
    first.extend((1..queries.len()).map(|k| estimate(&mut estimator, k)));
    let cold_forwards = forward_counter.get() - before;
    assert!(cold_forwards > 0, "cold passes must run forward passes");
    assert!(
        trie_hit_counter.get() > hits_before,
        "round 1's later passes must share rows through the trie"
    );

    // Round 2, same workload and seeds on the warm trie: identical sample
    // paths, so every conditional is served from the cache — zero forwards,
    // a strict reduction over per-pass dedup (which would pay
    // `cold_forwards` again).
    let before = forward_counter.get();
    let hits_before = trie_hit_counter.get();
    let second: Vec<f64> = (0..queries.len())
        .map(|k| estimate(&mut estimator, k))
        .collect();
    let warm_forwards = forward_counter.get() - before;
    assert!(
        warm_forwards < cold_forwards,
        "warm trie must strictly reduce forwards ({warm_forwards} vs {cold_forwards})"
    );
    // No forward launch also means round 2 added no forward rows.
    assert_eq!(
        warm_forwards, 0,
        "identical workload should be fully cached"
    );
    assert!(
        trie_hit_counter.get() > hits_before,
        "cache hits must surface on the obs registry"
    );

    // Cached conditionals are bit-preserving: identical RNG streams over a
    // warm trie reproduce the cold estimates exactly.
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.to_bits(), b.to_bits(), "warm-trie estimate diverged");
    }
}
