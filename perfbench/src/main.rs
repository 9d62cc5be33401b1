//! The repository benchmark.
//!
//! One command runs a named workload from a seed, checks every answer,
//! and prints its metrics by name and unit; its last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Run from
//! the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mine_data --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off;
//! `--trace 1` first repeats that untraced phase, then runs a traced one
//! and prints the per-layer metrics. Unit tests of the helpers:
//! `cargo test --manifest-path perfbench/Cargo.toml`.
//!
//! The benchmark sits outside the program: it times calls into each
//! layer's public functions and reads the instruments that already exist
//! (`SearchProfile`, `SharedMemos::stats`, `MqService::atom_cache_stats`,
//! the span rings via `mq_obs::trace::collect_request`). All load comes
//! from this one process with at most two client threads, and the engine
//! runs at its default thread count. It refuses to run when an engine
//! switch (`MQ_FAULTS`, `MQ_COLUMNAR`, `MQ_SHARED_MEMO`, `MQ_PARALLEL`,
//! `MQ_THREADS`, `MQ_SPLIT_DEPTH`, `MQ_TRACE`) is set, so two runs differ
//! only by code.
//!
//! # Workloads (closed loops)
//!
//! * `mine_data` — data complexity: the fixed width-1 metaquery
//!   `R(X,Z) <- P(X,Y), Q(Y,Z)` (type 0) over three random binary
//!   relations of 2000 rows each (domain 400, all thresholds 1/1000, 27
//!   answers). One in-process caller loops on `find_rules`. Kernels
//!   dominate; net, session and catalog are bypassed.
//! * `mine_combined` — combined complexity: one in-process caller cycles
//!   through width-2 `cycle(4)` (type 0, 32 answers), width-3
//!   `hybrid_star(4)` (type 0, 243 answers), `chain(3)` (type 1, 4096
//!   answers) and the telecom `db1` (type 2, 216 answers), each over at
//!   most a few hundred tuples. Enumeration, decomposition, planning,
//!   memo traffic and the scheduler dominate.
//! * `serve_mixed` — served reads beside writes: an in-process
//!   `NetServer` on loopback, two client connections. Connection 0 sends
//!   an `append` of 4 rows to `r0` as every tenth request; every other
//!   request is a seeded, weighted rotation of four `mine` requests over
//!   one catalog database of 3 × 1000 tuples. The only workload that runs
//!   net, session, dedup and catalog.
//!
//! # Correctness gate
//!
//! Every `mine_*` answer set must equal `find_rules_seq`'s, and its count
//! is pinned. Every `serve_mixed` `ok` block must equal `find_rules_seq`
//! over the snapshot version its header names, rebuilt after the timed
//! phase from a local copy with the same appends. A mismatch makes the
//! run print `"correct": false` and exit 1; it never counts as a failure.
//!
//! # End-to-end metrics (`--trace 0`, tracing off, timed phase only)
//!
//! `setup_s` (median of seven set-ups: data, catalog, server, references,
//! warm-up), `latency_p50_ms` and `latency_p99_ms` per `mine` (the call,
//! or the TCP round trip), `throughput_ops_s` (completed `mine`s per
//! second) and `cpu_ms_per_op` (user+sys CPU from `/proc/self/stat` per
//! operation). A percentile is reported only with at least ten samples
//! beyond it; a phase runs on past `--seconds` (up to three times as
//! long) until p99 has them. `latency_p99_ms` is the median of the p99s
//! of consecutive segments of at least 1000 operations each, so a burst
//! of contention from outside the process moves one segment, not the
//! run. Failed operations are the result line's
//! `failed` out of `attempted`; the error ratio and the `append` round
//! trips (`write_p50_ms`, `write_p90_ms`) also go to stderr. Every run
//! prints every metric, so a metric that only one workload has (the
//! `append` round trips) is a per-layer metric. So is the peak resident
//! set (`VmHWM`, read after the untraced phase): across ten seeds its
//! interquartile range reached a third of its median on `mine_combined`,
//! from the allocator's per-thread arenas and the seed's intermediate
//! sizes, too wide for a bound.
//!
//! # Per-layer metrics (`--trace 1`) and what each should move
//!
//! | layer | metrics | should move |
//! |---|---|---|
//! | `algebra`, `hashjoin` | `algebra.{join_on,semijoin_on,project,count_distinct}.rows_per_s`, `hashjoin.group_index_build.rows_per_s` | `latency_p50_ms` on `mine_data`; the index build also `serve.write_p50_ms` on `serve_mixed` |
//! | `exec` | `exec.{scan,hashjoin,semijoin,project}.self_ms`, `exec.node_execs_per_search`, `exec.rows_in_per_answer` | `latency_p50_ms` on `mine_data` (project: on `mine_combined`) |
//! | `exec` | `exec.project.noop_ratio` | `latency_p50_ms` on `mine_combined` |
//! | `plan`, `hypertree` | `plan.nodes_per_search`, `hypertree.decompose_ms` | `latency_p50_ms` on `mine_combined` |
//! | `memo` | `memo.hit_ratio`, `memo.misses_per_search` | `latency_p50_ms` on `mine_combined` |
//! | `memo` | `memo.atom_cache_hit_ratio` | `latency_p99_ms` on `serve_mixed` |
//! | `parallel` | `parallel.tasks_per_search`, `parallel.task_p50_us`, `parallel.busy_ratio` | `latency_p50_ms`, `cpu_ms_per_op` on both `mine_*` |
//! | `session`, `dedup` | `session.admission_wait_p99_us`, `session.search_p{50,99}_ms`, `dedup.wait_p99_us`, `dedup.share` | `latency_p50_ms`, `latency_p99_ms` on `serve_mixed` |
//! | `net` | `net.serve_p50_ms`, `net.write_p99_us`, `net.unattributed_p50_us`, and the mean ledger `net.{rtt,admission,dedup_wait,search,protocol,write,unattributed}_mean_us` | `latency_p50_ms` on `serve_mixed` |
//! | `serve` | `serve.write_p50_ms`, `serve.write_p90_ms`: `append` round trips, tracing off (per-layer, since `mine_*` make no writes) | the write side of `serve_mixed` itself |
//! | `catalog` | `catalog.update_p50_ms`, `catalog.freeze_p50_ms` | `serve.write_p50_ms` on `serve_mixed` |
//! | process | `process.peak_rss_mb` | nothing by itself; shows work moved into caches or set-up |
//! | `obs` | `obs.trace_overhead_pct`, `obs.incomplete_span_sets`, `obs.traced_requests` | nothing |
//!
//! Kernels are timed on the workload's own atoms `r0(X,Y)`, `r1(Y,Z)`.
//! Executor, planner, memo and scheduler numbers come from detailed
//! `SearchProfile`s of `find_rules_instrumented` searches with an owned
//! `SharedMemos` (on `serve_mixed`, the rotation searched in process over
//! the final snapshot); scheduler, session, transport and catalog numbers
//! from each request's spans, collected right after it completes. The
//! served ledger splits each round trip into `req.admission`,
//! `req.dedup.wait`, `search.run`, the rest of `req.serve` (protocol
//! parsing and rendering), `req.write`, and an explicit unattributed
//! residual (socket transfer and client wake-up); the means add up
//! exactly to `net.rtt_mean_us`. A layer a workload does not run reads 0.
//!
//! `exec.profiled_share` is plan-node self time over worker busy time.
//! Count plans, the reducer's semijoins and body assembly carry no plan
//! node, so the profile cannot split their time by operator; on
//! `mine_data` they are nearly all of it, and its kernel changes show in
//! the `algebra`/`hashjoin` rates rather than in `exec.*.self_ms`.

mod inputs;
mod layers;
mod measure;
mod mine;
mod serve;

use std::process::ExitCode;

/// Engine switches that would make two runs differ by more than code.
const ENGINE_SWITCHES: [&str; 7] = [
    "MQ_FAULTS",
    "MQ_COLUMNAR",
    "MQ_SHARED_MEMO",
    "MQ_PARALLEL",
    "MQ_THREADS",
    "MQ_SPLIT_DEPTH",
    "MQ_TRACE",
];

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = ENGINE_SWITCHES
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with engine switches set: {}",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let result = match args.workload.as_str() {
        "mine_data" => mine::run(inputs::mine_data, args.seed, args.seconds, args.trace),
        "mine_combined" => mine::run(inputs::mine_combined, args.seed, args.seconds, args.trace),
        "serve_mixed" => serve::run(args.seed, args.seconds, args.trace),
        other => Err(format!(
            "unknown workload {other} (mine_data|mine_combined|serve_mixed)"
        )),
    };
    match result.and_then(|r| Ok((r.correct, r.to_json()?))) {
        Ok((correct, json)) => {
            println!("{json}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: answers differ from find_rules_seq");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn command_line() {
        assert_eq!(
            args("--workload mine_data --seed 3 --seconds 10 --trace 1"),
            Ok(Args {
                workload: "mine_data".into(),
                seed: 3,
                seconds: 10.0,
                trace: true
            })
        );
        assert!(args("--workload x --seed -1").is_err());
        assert!(args("--workload x --seed 1 --trace 2").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload x --seed 1 --bogus 1").is_err());
    }

    /// `BENCHMARK.json` lists exactly the metrics the runs print.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.match_indices("\"name\": \"")
                .map(|(i, m)| {
                    let rest = &body[i + m.len()..];
                    rest[..rest.find('"').expect("name end")].to_string()
                })
                .collect()
        };
        let per_layer: Vec<String> = layers::PER_LAYER
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(section("per_layer"), per_layer);
        assert_eq!(
            section("end_to_end"),
            [
                "setup_s",
                "latency_p50_ms",
                "latency_p99_ms",
                "throughput_ops_s",
                "cpu_ms_per_op"
            ]
        );
        assert_eq!(
            section("workloads"),
            ["mine_data", "mine_combined", "serve_mixed"]
        );
    }
}
