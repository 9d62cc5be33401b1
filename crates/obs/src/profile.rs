//! Per-search plan-node profiling.
//!
//! A [`SearchProfile`] rides along one search (`find_rules_*` call) and
//! splits into two tiers:
//!
//! * **Always-on totals** — scheduler tasks claimed, executor node
//!   evaluations, memo hits — are single relaxed atomic increments,
//!   cheap enough for every request. The service layer drains them into
//!   the `mq_sched_*` / `mq_exec_*` metric families.
//! * **Detailed per-node attribution** — wall nanoseconds, execution
//!   count, memo hits, rows in/out per hash-consed `PlanOp` id — only
//!   when the profile was built [`SearchProfile::detailed`]. Executors
//!   accumulate into thread-local `Vec<NodeStat>`s and merge once per
//!   worker ([`SearchProfile::merge_nodes`]), so the hot loop touches no
//!   shared cache line.
//!
//! Detailed profiles also keep one engine phase outside the plan DAG:
//! the `findHeads` head-count op (cover and confidence numerators of
//! every head against each body join), as wall time (the search's
//! head-table build plus per-body streaming of the body's last join),
//! calls (bodies counted), body rows streamed and head-table probes in a
//! [`PhaseStat`] merged once per worker ([`SearchProfile::merge_head_counts`]).
//!
//! Wall time per node is **self time**: the clock runs only around a
//! node's own kernel (scan/probe/build), not its children's recursion,
//! so a plan's node times sum to the executor's total instead of
//! multiply-counting shared subtrees.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Accumulated attribution for one hash-consed plan node id.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStat {
    /// Self wall time in nanoseconds (children excluded).
    pub wall_ns: u64,
    /// Times the node was executed (memo misses that ran the kernel).
    pub execs: u64,
    /// Times a memoized result satisfied the node instead.
    pub memo_hits: u64,
    /// Total input rows consumed across executions.
    pub rows_in: u64,
    /// Total output rows produced across executions.
    pub rows_out: u64,
}

impl NodeStat {
    fn absorb(&mut self, other: &NodeStat) {
        self.wall_ns += other.wall_ns;
        self.execs += other.execs;
        self.memo_hits += other.memo_hits;
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
    }
}

/// Accumulated cost of one engine phase that no plan node owns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Wall time in nanoseconds.
    pub wall_ns: u64,
    /// Times the phase's op ran.
    pub calls: u64,
    /// Rows the op streamed.
    pub rows: u64,
    /// Hash-table probes the op made (the head-count op's filter passes).
    pub probes: u64,
}

/// Profile for one search: always-on totals plus (optionally) per-node
/// detail keyed by plan-node id.
#[derive(Debug, Default)]
pub struct SearchProfile {
    detailed: bool,
    /// Scheduler prefix tasks claimed.
    pub tasks: AtomicU64,
    /// Executor node evaluations (kernel actually ran).
    pub node_execs: AtomicU64,
    /// Node evaluations satisfied from a memo instead.
    pub node_memo_hits: AtomicU64,
    /// Per-node detail, indexed by plan-node id (dense — plan arenas
    /// hand out small sequential ids). Merged under a mutex once per
    /// worker, not per node.
    nodes: Mutex<Vec<NodeStat>>,
    /// The `findHeads` head-count phase (detailed profiles only).
    head_count_ns: AtomicU64,
    head_count_calls: AtomicU64,
    head_count_rows: AtomicU64,
    head_count_probes: AtomicU64,
}

impl SearchProfile {
    /// A profile recording only the always-on totals.
    pub fn new() -> SearchProfile {
        SearchProfile::default()
    }

    /// A profile that also keeps per-node detail (slow-query log,
    /// `bench_report` node tables).
    pub fn detailed() -> SearchProfile {
        SearchProfile {
            detailed: true,
            ..SearchProfile::default()
        }
    }

    /// Whether executors should keep per-node detail for this search.
    pub fn is_detailed(&self) -> bool {
        self.detailed
    }

    /// Record one claimed scheduler task.
    pub fn task_claimed(&self) {
        self.tasks.fetch_add(1, Ordering::Relaxed);
    }

    /// Merge one worker's locally accumulated per-node stats. `local`
    /// is indexed by plan-node id; ignored unless detailed.
    pub fn merge_nodes(&self, local: &[NodeStat]) {
        if !self.detailed {
            return;
        }
        let mut nodes = self.nodes.lock().unwrap_or_else(|e| e.into_inner());
        if nodes.len() < local.len() {
            nodes.resize(local.len(), NodeStat::default());
        }
        for (id, stat) in local.iter().enumerate() {
            if stat != &NodeStat::default() {
                nodes[id].absorb(stat);
            }
        }
    }

    /// Merge one worker's locally accumulated head-count phase; ignored
    /// unless detailed.
    pub fn merge_head_counts(&self, local: &PhaseStat) {
        if !self.detailed {
            return;
        }
        self.head_count_ns
            .fetch_add(local.wall_ns, Ordering::Relaxed);
        self.head_count_calls
            .fetch_add(local.calls, Ordering::Relaxed);
        self.head_count_rows
            .fetch_add(local.rows, Ordering::Relaxed);
        self.head_count_probes
            .fetch_add(local.probes, Ordering::Relaxed);
    }

    /// The merged head-count phase (all zero unless detailed).
    pub fn head_counts(&self) -> PhaseStat {
        PhaseStat {
            wall_ns: self.head_count_ns.load(Ordering::Relaxed),
            calls: self.head_count_calls.load(Ordering::Relaxed),
            rows: self.head_count_rows.load(Ordering::Relaxed),
            probes: self.head_count_probes.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the merged per-node stats, indexed by node id.
    pub fn nodes_snapshot(&self) -> Vec<NodeStat> {
        self.nodes.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The `k` hottest nodes by self wall time, `(node_id, stat)` pairs
    /// sorted hottest-first. Nodes that never ran are skipped.
    pub fn top_nodes(&self, k: usize) -> Vec<(usize, NodeStat)> {
        let mut all: Vec<(usize, NodeStat)> = self
            .nodes_snapshot()
            .into_iter()
            .enumerate()
            .filter(|(_, s)| s.execs > 0 || s.memo_hits > 0)
            .collect();
        all.sort_by(|a, b| (b.1.wall_ns, b.1.execs, a.0).cmp(&(a.1.wall_ns, a.1.execs, b.0)));
        all.truncate(k);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_by_node_id() {
        let p = SearchProfile::detailed();
        let mut a = vec![NodeStat::default(); 3];
        a[1] = NodeStat {
            wall_ns: 100,
            execs: 2,
            memo_hits: 0,
            rows_in: 10,
            rows_out: 4,
        };
        let mut b = vec![NodeStat::default(); 2];
        b[1] = NodeStat {
            wall_ns: 50,
            execs: 1,
            memo_hits: 3,
            rows_in: 5,
            rows_out: 2,
        };
        p.merge_nodes(&a);
        p.merge_nodes(&b);
        let snap = p.nodes_snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[1].wall_ns, 150);
        assert_eq!(snap[1].execs, 3);
        assert_eq!(snap[1].memo_hits, 3);
        assert_eq!(snap[1].rows_in, 15);
        assert_eq!(snap[0], NodeStat::default());
    }

    #[test]
    fn undetailed_profile_drops_node_detail() {
        let p = SearchProfile::new();
        assert!(!p.is_detailed());
        p.merge_nodes(&[NodeStat {
            wall_ns: 9,
            execs: 1,
            ..NodeStat::default()
        }]);
        assert!(p.nodes_snapshot().is_empty());
    }

    #[test]
    fn head_count_phase_merges_only_when_detailed() {
        let local = PhaseStat {
            wall_ns: 40,
            calls: 2,
            rows: 7,
            probes: 3,
        };
        let p = SearchProfile::detailed();
        p.merge_head_counts(&local);
        p.merge_head_counts(&local);
        assert_eq!(
            p.head_counts(),
            PhaseStat {
                wall_ns: 80,
                calls: 4,
                rows: 14,
                probes: 6,
            }
        );
        let off = SearchProfile::new();
        off.merge_head_counts(&local);
        assert_eq!(off.head_counts(), PhaseStat::default());
    }

    #[test]
    fn top_nodes_sorts_by_self_time() {
        let p = SearchProfile::detailed();
        let mut local = vec![NodeStat::default(); 4];
        local[0] = NodeStat {
            wall_ns: 10,
            execs: 1,
            ..NodeStat::default()
        };
        local[2] = NodeStat {
            wall_ns: 300,
            execs: 5,
            ..NodeStat::default()
        };
        local[3] = NodeStat {
            wall_ns: 0,
            execs: 0,
            memo_hits: 7,
            ..NodeStat::default()
        };
        p.merge_nodes(&local);
        let top = p.top_nodes(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 2);
        assert_eq!(top[1].0, 0);
    }
}
