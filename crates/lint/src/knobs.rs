//! The central `MQ_*` knob registry.
//!
//! Every environment variable the workspace reads must be declared here
//! (name, default, purpose) — the `knob-registry` rule fails on any
//! `"MQ_…"` literal in non-test code that has no entry, on any entry no
//! code reads (dead registry rot), and on a PERFORMANCE.md knob table
//! that drifted from [`render_table`]'s output.

/// One declared environment knob.
pub struct Knob {
    /// The environment variable name (`MQ_…`).
    pub name: &'static str,
    /// The effective default when unset.
    pub default: &'static str,
    /// One-line purpose, rendered into the docs table.
    pub purpose: &'static str,
}

/// Every `MQ_*` knob the workspace reads, alphabetically.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "MQ_BENCH_HISTORY",
        default: "BENCH_history.jsonl",
        purpose: "Append path for `bench_report`'s per-run trajectory records",
    },
    Knob {
        name: "MQ_BENCH_MAX_NET_P99_MS",
        default: "10000",
        purpose: "`net_load` p99 latency guard threshold, in milliseconds",
    },
    Knob {
        name: "MQ_BENCH_MAX_SCRAPE_OVERHEAD_PCT",
        default: "5",
        purpose: "Bench guard: max % regression of net p99 with the 1 s flight-recorder scraper on",
    },
    Knob {
        name: "MQ_BENCH_MAX_TRACE_OVERHEAD_PCT",
        default: "5",
        purpose: "Bench guard: max % slowdown of the traced vs untraced fig4 run",
    },
    Knob {
        name: "MQ_BENCH_MIN_WIDTH3_RPS",
        default: "4000",
        purpose: "Bench guard: min `fig4_width3_star4` optimized rows/sec (columnar floor)",
    },
    Knob {
        name: "MQ_BENCH_NET_CONNS",
        default: "120",
        purpose: "`net_load` workload: concurrent client connections",
    },
    Knob {
        name: "MQ_BENCH_NET_FAULTS",
        default: "(none)",
        purpose: "`net_load` workload: `MQ_FAULTS`-syntax plan injected for the run",
    },
    Knob {
        name: "MQ_BENCH_NET_REQS",
        default: "5",
        purpose: "`net_load` workload: requests sent per connection",
    },
    Knob {
        name: "MQ_BENCH_ONLY",
        default: "(unset)",
        purpose: "Substring filter restricting `bench_report` to matching workloads",
    },
    Knob {
        name: "MQ_BENCH_OUT",
        default: "BENCH_findrules.json",
        purpose: "Output path of the `bench_report` JSON report",
    },
    Knob {
        name: "MQ_BENCH_SAMPLES",
        default: "5",
        purpose: "Timed samples per (workload, core) in `bench_report`",
    },
    Knob {
        name: "MQ_BENCH_THREADS",
        default: "(unset)",
        purpose: "Comma list of worker counts to sweep the optimized core over (first = primary)",
    },
    Knob {
        name: "MQ_FAULTS",
        default: "(none)",
        purpose: "Deterministic fault plan `site:prob:seed[,…]` for the serving stack",
    },
    Knob {
        name: "MQ_HEALTH_ANOMALY_K",
        default: "4",
        purpose: "Watchdog sensitivity: anomaly when a counter rate exceeds baseline mean + k·MAD",
    },
    Knob {
        name: "MQ_HEALTH_MAX_ERR_RATE",
        default: "0.05",
        purpose: "Health rule `error-rate`: structured-err fraction ceiling (4× is Unhealthy)",
    },
    Knob {
        name: "MQ_HEALTH_P99_MS",
        default: "1000",
        purpose: "Health rule `p99-burn`: request-latency objective for the two-window burn math",
    },
    Knob {
        name: "MQ_SCRAPE_MS",
        default: "1000",
        purpose: "Flight-recorder scrape cadence, ms (`0` keeps the recorder fully off)",
    },
    Knob {
        name: "MQ_SLOW_MS",
        default: "(off)",
        purpose: "Slow-query log threshold, ms — slower searches capture a per-node profile",
    },
    Knob {
        name: "MQ_THREADS",
        default: "CPU count",
        purpose: "Worker-thread cap for the findRules scheduler's scoped threads; `1` runs searches sequentially",
    },
    Knob {
        name: "MQ_TRACE",
        default: "0 (off)",
        purpose:
            "Hot-path span tracing (`1` records scheduler/executor spans and per-node profiles)",
    },
];

/// Registry entry for `name`, if declared.
pub fn lookup(name: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.name == name)
}

/// The generated markdown knob table — the exact content the
/// `knob-registry` rule requires between PERFORMANCE.md's
/// `<!-- knob-table:begin -->` / `<!-- knob-table:end -->` markers.
pub fn render_table() -> String {
    let mut out = String::from("| Knob | Default | Purpose |\n|---|---|---|\n");
    for k in KNOBS {
        out.push_str(&format!(
            "| `{}` | `{}` | {} |\n",
            k.name, k.default, k.purpose
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in KNOBS.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "registry must stay alphabetical and duplicate-free: {} vs {}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn every_entry_renders_one_table_row() {
        let table = render_table();
        for k in KNOBS {
            assert!(table.contains(&format!("| `{}` |", k.name)));
        }
        assert_eq!(table.lines().count(), KNOBS.len() + 2);
    }

    #[test]
    fn lookup_finds_declared_knobs_only() {
        assert!(lookup("MQ_THREADS").is_some());
        assert!(lookup("MQ_NOT_A_KNOB").is_none());
    }
}
