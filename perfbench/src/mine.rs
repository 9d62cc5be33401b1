//! The in-process workloads `mine_data` and `mine_combined`: one caller
//! in a closed loop on `find_rules`, cycling through the workload's cases.

use crate::inputs::MineCase;
use crate::layers::{self, LayerValues, TracingOn};
use crate::measure::{self, median, percentile, sorted, supported, Report};
use mq_core::engine::find_rules::find_rules_seq;
use mq_core::prelude::*;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 7;

/// The tail percentile every run reports.
pub const TAIL_Q: f64 = 0.99;

/// A workload's cases with their checked reference answers.
struct Prepared {
    cases: Vec<MineCase>,
    refs: Vec<Vec<MqAnswer>>,
    /// One pass of the rotation: case indices, each repeated by weight.
    schedule: Vec<usize>,
}

/// Generate the inputs, compute every reference with `find_rules_seq`,
/// check the pinned answer counts, and warm up once per case.
fn prepare(build: fn(u64) -> Vec<MineCase>, seed: u64) -> Result<Prepared, String> {
    let cases = build(seed);
    let mut refs = Vec::with_capacity(cases.len());
    for c in &cases {
        let expected =
            find_rules_seq(&c.db, &c.mq, c.ty, c.th).map_err(|e| format!("{}: {e}", c.name))?;
        if expected.len() != c.answers {
            return Err(format!(
                "{}: find_rules_seq gave {} answers, pinned {}",
                c.name,
                expected.len(),
                c.answers
            ));
        }
        let warm = find_rules(&c.db, &c.mq, c.ty, c.th).map_err(|e| format!("{}: {e}", c.name))?;
        if warm != expected {
            return Err(format!(
                "{}: warm-up answers differ from find_rules_seq",
                c.name
            ));
        }
        refs.push(expected);
    }
    let schedule = cases
        .iter()
        .enumerate()
        .flat_map(|(i, c)| std::iter::repeat_n(i, c.weight))
        .collect();
    Ok(Prepared {
        cases,
        refs,
        schedule,
    })
}

/// Closed-loop measurements of one phase.
#[derive(Default)]
struct Phase {
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    wall_s: f64,
    cpu_s: f64,
    samples: Vec<layers::SearchSample>,
}

/// Run the rotation for `seconds`; with `need_tail`, on until the tail
/// percentile is supported (at most three times as long). With `traced`
/// every call is a detailed-profile search whose spans are collected
/// right after it returns.
fn run_phase(p: &Prepared, seconds: f64, need_tail: bool, traced: bool) -> Result<Phase, String> {
    let mut ph = Phase::default();
    let cpu0 = measure::cpu_seconds()?;
    let start = Instant::now();
    let mut i = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let tail_ok = !need_tail || supported(ph.latencies_ms.len(), TAIL_Q);
        if elapsed >= 3.0 * seconds || (elapsed >= seconds && tail_ok) {
            break;
        }
        let k = p.schedule[i % p.schedule.len()];
        i += 1;
        let c = &p.cases[k];
        ph.attempted += 1;
        let got = if traced {
            // The search call alone: span collection is not timed.
            layers::profiled_search(&c.db, &c.mq, c.ty, c.th).map(|(answers, sample)| {
                let ms = sample.wall_ms();
                ph.samples.push(sample);
                (answers, ms)
            })
        } else {
            let t = Instant::now();
            find_rules(&c.db, &c.mq, c.ty, c.th).map(|a| (a, t.elapsed().as_secs_f64() * 1e3))
        };
        match got {
            Ok((answers, ms)) => {
                ph.latencies_ms.push(ms);
                if answers != p.refs[k] {
                    ph.mismatches += 1;
                    eprintln!("perfbench: {} answers differ from find_rules_seq", c.name);
                }
            }
            Err(e) => {
                ph.failed += 1;
                eprintln!("perfbench: {} failed: {e}", c.name);
            }
        }
    }
    ph.wall_s = start.elapsed().as_secs_f64();
    ph.cpu_s = measure::cpu_seconds()? - cpu0;
    Ok(ph)
}

/// Run `mine_data` or `mine_combined`.
pub fn run(
    build: fn(u64) -> Vec<MineCase>,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(prepare(build, seed)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let p = prepared.expect("at least one set-up");
    // A traced run splits its time between an untraced and a traced phase.
    let phase_s = if trace { seconds / 2.0 } else { seconds };
    let untraced = run_phase(&p, phase_s, !trace, false)?;
    let peak_rss = measure::peak_rss_mb()?;
    let lat = sorted(untraced.latencies_ms.clone());
    if !trace && !supported(lat.len(), TAIL_Q) {
        return Err(format!(
            "only {} operations completed: too few for p99",
            lat.len()
        ));
    }
    let p50 = percentile(&lat, 0.5).ok_or("no operation completed")?;
    let mut report = Report {
        correct: untraced.mismatches == 0,
        attempted: untraced.attempted,
        failed: untraced.failed,
        ..Report::default()
    };
    let ops = lat.len() as f64;
    eprintln!(
        "perfbench: {} ops in {:.2}s, {} failed, {} mismatched, error_ratio {}",
        untraced.attempted,
        untraced.wall_s,
        untraced.failed,
        untraced.mismatches,
        layers::ratio(untraced.failed, untraced.attempted)
    );
    if !trace {
        report.push("setup_s", median(&setup_times), "s");
        report.push("latency_p50_ms", p50, "ms");
        report.push(
            "latency_p99_ms",
            measure::segmented_percentile(&untraced.latencies_ms, TAIL_Q).expect("supported"),
            "ms",
        );
        report.push("throughput_ops_s", ops / untraced.wall_s, "1/s");
        report.push("cpu_ms_per_op", untraced.cpu_s * 1e3 / ops, "ms");
        return Ok(report);
    }
    let traced = {
        let _on = TracingOn::new();
        run_phase(&p, phase_s, false, true)?
    };
    report.correct &= traced.mismatches == 0;
    report.attempted += traced.attempted;
    report.failed += traced.failed;
    let mut values = LayerValues::from([("process.peak_rss_mb", peak_rss)]);
    layers::search_layers(&traced.samples, &mut values);
    let c0 = &p.cases[0];
    layers::kernel_rates(&c0.db, "r0", "r1", Duration::from_millis(100), &mut values);
    let mqs: Vec<&Metaquery> = p.schedule.iter().map(|&k| &p.cases[k].mq).collect();
    values.insert("hypertree.decompose_ms", layers::decompose_ms(&mqs, 50));
    let traced_p50 = percentile(&sorted(traced.latencies_ms), 0.5).unwrap_or(p50);
    values.insert(
        "obs.trace_overhead_pct",
        layers::trace_overhead_pct(p50, traced_p50),
    );
    push_layers(&mut report, &values);
    Ok(report)
}

/// Append every per-layer metric, 0 for layers the workload skips.
pub fn push_layers(report: &mut Report, values: &LayerValues) {
    for &(name, unit) in layers::PER_LAYER {
        report.push(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}
