//! Shared workloads and measurement helpers for the benchmark harness.
//!
//! Every experiment in EXPERIMENTS.md builds its inputs through this
//! module so the table-printer binaries, `bench_report` and perfbench
//! measure exactly the same workloads (same seeds, same sizes).

pub mod netload;

use mq_core::prelude::*;
use mq_datagen::{metaqueries, RandomDbSpec};
use mq_relation::{Database, Frac};
use std::time::Instant;

/// The seed namespace for all experiments (recorded in EXPERIMENTS.md).
pub const BASE_SEED: u64 = 0x4d51_2000; // "MQ 2000"

/// A benchmark workload: a database plus a metaquery.
pub struct Workload {
    /// The database.
    pub db: Database,
    /// The metaquery.
    pub mq: Metaquery,
}

/// Build the standard chain workload (body hypertree width 1).
pub fn chain_workload(n_relations: usize, rows: usize, domain: i64, m: usize) -> Workload {
    let db = RandomDbSpec {
        n_relations,
        arity: 2,
        rows,
        domain,
        seed: BASE_SEED ^ (rows as u64),
    }
    .generate();
    Workload {
        db,
        mq: metaqueries::chain(m),
    }
}

/// Build the cycle workload (body hypertree width 2).
pub fn cycle_workload(n_relations: usize, rows: usize, domain: i64, m: usize) -> Workload {
    let db = RandomDbSpec {
        n_relations,
        arity: 2,
        rows,
        domain,
        seed: BASE_SEED ^ 0xc1c1 ^ (rows as u64),
    }
    .generate();
    Workload {
        db,
        mq: metaqueries::cycle(m),
    }
}

/// Build the clique workload (body hypertree width `n/2`).
pub fn clique_workload(n_relations: usize, rows: usize, domain: i64, n: usize) -> Workload {
    let db = RandomDbSpec {
        n_relations,
        arity: 2,
        rows,
        domain,
        seed: BASE_SEED ^ 0xc11e ^ (rows as u64),
    }
    .generate();
    Workload {
        db,
        mq: metaqueries::clique(n),
    }
}

/// Build the width-3 star/clique hybrid workload: `hybrid_star(arms)`
/// (body hypergraph `K_{arms+1}`; `arms = 4` is the width-3 series) over
/// a random database extended with the fixed `rim` relation the hybrid's
/// clique atoms name.
pub fn hybrid_star_workload(n_relations: usize, rows: usize, domain: i64, arms: usize) -> Workload {
    use rand::prelude::*;
    let mut db = RandomDbSpec {
        n_relations,
        arity: 2,
        rows,
        domain,
        seed: BASE_SEED ^ 0x57a2 ^ (rows as u64),
    }
    .generate();
    let rim = db.add_relation("rim", 2);
    let mut rng = StdRng::seed_from_u64(BASE_SEED ^ 0x21b ^ (rows as u64));
    for _ in 0..rows {
        let row = vec![
            mq_relation::Value::Int(rng.gen_range(0..domain)),
            mq_relation::Value::Int(rng.gen_range(0..domain)),
        ];
        db.insert(rim, row.into_boxed_slice());
    }
    Workload {
        db,
        mq: metaqueries::hybrid_star(arms, "rim"),
    }
}

/// Standard mid thresholds used by the engine-comparison experiments.
pub fn mid_thresholds() -> Thresholds {
    Thresholds::all(Frac::new(1, 10), Frac::new(1, 10), Frac::new(1, 10))
}

/// Wall-clock one closure, returning (result, seconds).
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Least-squares slope of `log(y)` against `log(x)` — the empirical
/// polynomial degree of a scaling series.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.max(1e-12).ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_quadratic_is_two() {
        let pts: Vec<(f64, f64)> = (1..=6).map(|x| (x as f64, (x * x) as f64)).collect();
        let s = loglog_slope(&pts);
        assert!((s - 2.0).abs() < 1e-9, "slope {s}");
    }

    #[test]
    fn workload_widths_match_the_series() {
        use mq_core::engine::find_rules::body_decomposition;
        let width = |w: Workload| body_decomposition(&w.mq).width;
        assert_eq!(width(chain_workload(2, 20, 5, 2)), 1);
        assert_eq!(width(cycle_workload(2, 20, 5, 4)), 2);
        assert_eq!(width(clique_workload(1, 20, 6, 6)), 3);
        assert_eq!(width(hybrid_star_workload(2, 20, 5, 4)), 3);
    }

    #[test]
    fn workloads_are_reproducible() {
        let a = chain_workload(3, 20, 8, 2);
        let b = chain_workload(3, 20, 8, 2);
        assert_eq!(a.db.total_tuples(), b.db.total_tuples());
    }
}
