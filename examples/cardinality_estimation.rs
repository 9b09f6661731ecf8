//! Bonus capability: the trained AR model is itself a query-driven
//! cardinality estimator (SAM builds on UAE-Q, §4.1) — estimates come from
//! progressive sampling without generating any database at all.
//!
//! Run with: `cargo run --release --example cardinality_estimation`

use rand::rngs::StdRng;
use rand::SeedableRng;
use sam::ar::Estimator;
use sam::prelude::*;

fn main() {
    let target = sam::datasets::dmv(10_000, 5);
    let stats = DatabaseStats::from_database(&target);

    let mut gen = WorkloadGenerator::new(&target, 5);
    let workload = label_workload(&target, gen.single_workload("dmv", 1_500)).expect("labelling");

    let mut config = SamConfig::default();
    config.train.epochs = 8;
    let trained = Sam::fit(target.schema(), &stats, &workload, &config).expect("training");
    let mut estimator = Estimator::new(trained.model().clone());

    // Estimate cardinalities of unseen queries straight from the model.
    let mut rng = StdRng::seed_from_u64(0);
    let probes = [
        "SELECT COUNT(*) FROM dmv WHERE dmv.body_type <= 5",
        "SELECT COUNT(*) FROM dmv WHERE dmv.state = 0 AND dmv.fuel_type = 0",
        "SELECT COUNT(*) FROM dmv WHERE dmv.unladen_weight >= 2000",
        "SELECT COUNT(*) FROM dmv WHERE dmv.suspension = 1 AND dmv.revocation = 1",
    ];
    println!(
        "{:<70} {:>8} {:>10} {:>7}",
        "query", "truth", "estimate", "Q-err"
    );
    let mut errors = Vec::new();
    for sql in probes {
        let q = parse_query(sql).expect("valid SQL");
        let truth = evaluate_cardinality(&target, &q).unwrap() as f64;
        let est = estimator.estimate(&q, 512, &mut rng).expect("estimation");
        let qe = q_error(est, truth);
        errors.push(qe);
        println!("{sql:<70} {truth:>8.0} {est:>10.1} {qe:>7.2}");
    }

    // And across a batch of random test queries.
    let test = WorkloadGenerator::new(&target, 777).single_workload("dmv", 100);
    let mut qs = Vec::new();
    for q in &test {
        let truth = evaluate_cardinality(&target, q).unwrap() as f64;
        let est = estimator.estimate(q, 256, &mut rng).expect("estimation");
        qs.push(q_error(est, truth));
    }
    let p = Percentiles::from_values(&qs);
    println!(
        "\n100 random test queries: median Q-Error {:.2}, 90th {:.2}, mean {:.2}",
        p.median, p.p90, p.mean
    );
}
