//! E14 — regenerate the Theorem 4.12 width-scaling experiment: the cost
//! of the support computation should scale as `d^c · log d` where `c` is
//! the hypertree width of the body. We fit log-log slopes per width.
//!
//! Run: `cargo run -p mq-bench --release --bin thm412_table`

use mq_bench::{chain_workload, clique_workload, cycle_workload, loglog_slope, time, Workload};
use mq_core::engine::find_rules::{body_decomposition, find_rules};
use mq_core::prelude::*;
use mq_relation::Frac;

fn run(w: &Workload) -> usize {
    find_rules(
        &w.db,
        &w.mq,
        InstType::Zero,
        Thresholds::single(IndexKind::Sup, Frac::new(9, 10)),
    )
    .unwrap()
    .len()
}

fn series(label: &str, width: usize, pts: &[(usize, f64)]) {
    let fpts: Vec<(f64, f64)> = pts.iter().map(|&(d, t)| (d as f64, t)).collect();
    let slope = loglog_slope(&fpts);
    print!("{label:<22} c={width}  ");
    for (d, t) in pts {
        print!("d={d}: {t:.4}s  ");
    }
    println!("| slope {slope:.2} (theory <= {width} + o(1) via d^c log d)");
}

fn main() {
    println!("Theorem 4.12 — support computation vs database size d, by body width c\n");

    let mut pts = Vec::new();
    for d in [200usize, 400, 800, 1600] {
        let w = chain_workload(2, d, d as i64 / 4, 2);
        assert_eq!(body_decomposition(&w.mq).width, 1);
        let (_, t) = time(|| run(&w));
        pts.push((d, t));
    }
    series("width-1 (chain-2)", 1, &pts);

    let mut pts = Vec::new();
    for d in [100usize, 200, 400, 800] {
        let w = cycle_workload(2, d, d as i64 / 4, 4);
        assert_eq!(body_decomposition(&w.mq).width, 2);
        let (_, t) = time(|| run(&w));
        pts.push((d, t));
    }
    series("width-2 (cycle-4)", 2, &pts);

    let mut pts = Vec::new();
    for d in [20usize, 40, 80, 160] {
        let w = clique_workload(1, d, d as i64 / 3, 6);
        assert_eq!(body_decomposition(&w.mq).width, 3);
        let (_, t) = time(|| run(&w));
        pts.push((d, t));
    }
    series("width-3 (clique-6)", 3, &pts);

    println!(
        "\nReading: each slope is fitted to one wall-clock sample per d, with searches \
         of a few milliseconds, so timer and scheduling noise dominate it. Read a \
         slope only as a rough upper-bound check against c; nothing asserts it, and \
         it need not grow with c (on random data the semijoin reduction often beats \
         the worst case). ROADMAP's \"complexity claims as deterministic, asserted \
         experiments\" item replaces this fit with deterministic work counters."
    );
}
