//! Metaquery shape generators: chains, stars, cycles and cliques with
//! known hypertree widths, plus schema-driven enumeration (the paper
//! notes metaqueries "can be automatically generated from the database
//! schema").

use mq_core::ast::{Metaquery, MetaqueryBuilder};
use mq_relation::Database;

/// Chain metaquery `R(X0,Xm) <- P1(X0,X1), ..., Pm(X{m-1},Xm)`.
/// Body hypertree width 1 (semi-acyclic body).
pub fn chain(m: usize) -> Metaquery {
    assert!(m >= 1);
    let mut b = MetaqueryBuilder::new();
    let xs: Vec<_> = (0..=m).map(|i| b.var(&format!("X{i}"))).collect();
    let head = b.pred_var("R");
    b.head_pattern(head, vec![xs[0], xs[m]]);
    for i in 0..m {
        let p = b.pred_var(&format!("P{i}"));
        b.body_pattern(p, vec![xs[i], xs[i + 1]]);
    }
    b.build()
}

/// Star metaquery `R(X0) <- P1(X0,X1), ..., Pm(X0,Xm)`: width-1 body.
pub fn star(m: usize) -> Metaquery {
    assert!(m >= 1);
    let mut b = MetaqueryBuilder::new();
    let center = b.var("X0");
    let head = b.pred_var("R");
    b.head_pattern(head, vec![center]);
    for i in 1..=m {
        let leaf = b.var(&format!("X{i}"));
        let p = b.pred_var(&format!("P{i}"));
        b.body_pattern(p, vec![center, leaf]);
    }
    b.build()
}

/// Cycle metaquery `R(X0,X1) <- P1(X0,X1), ..., Pm(X{m-1},X0)`: body
/// hypertree width 2 for `m >= 4` (width 1 would require semi-acyclicity).
pub fn cycle(m: usize) -> Metaquery {
    assert!(m >= 3);
    let mut b = MetaqueryBuilder::new();
    let xs: Vec<_> = (0..m).map(|i| b.var(&format!("X{i}"))).collect();
    let head = b.pred_var("R");
    b.head_pattern(head, vec![xs[0], xs[1]]);
    for i in 0..m {
        let p = b.pred_var(&format!("P{i}"));
        b.body_pattern(p, vec![xs[i], xs[(i + 1) % m]]);
    }
    b.build()
}

/// Clique metaquery: body has one binary pattern per unordered pair of
/// `n` variables. The body hypergraph is the complete graph `K_n`, whose
/// hypertree width is `⌈n/2⌉` — the knob the Theorem 4.12 width-scaling
/// experiment turns.
pub fn clique(n: usize) -> Metaquery {
    assert!(n >= 2);
    let mut b = MetaqueryBuilder::new();
    let xs: Vec<_> = (0..n).map(|i| b.var(&format!("X{i}"))).collect();
    let head = b.pred_var("R");
    b.head_pattern(head, vec![xs[0], xs[1]]);
    for i in 0..n {
        for j in (i + 1)..n {
            let p = b.pred_var(&format!("P{i}_{j}"));
            b.body_pattern(p, vec![xs[i], xs[j]]);
        }
    }
    b.build()
}

/// Star/clique hybrid metaquery of hypertree width `⌈(arms+1)/2⌉`: a
/// center `X0` with `arms` **pattern** spokes `P_i(X0, X_i)`, plus a
/// **fixed** rim atom `rim_rel(X_i, X_j)` for every pair of arm tips —
/// the body hypergraph is the complete graph `K_{arms+1}`.
///
/// `arms = 4` gives `K_5`, hypertree width **3** — the width-3 series of
/// `bench_report`, one step past the chain (width 1) and cycle (width 2)
/// contrast. Keeping the rim fixed keeps the pattern count (and thus the
/// instantiation space, which is exponential in `m`) at `arms + 1`, so
/// the workload stresses the width-3 node joins rather than the
/// enumeration.
pub fn hybrid_star(arms: usize, rim_rel: &str) -> Metaquery {
    assert!(arms >= 2);
    let mut b = MetaqueryBuilder::new();
    let xs: Vec<_> = (0..=arms).map(|i| b.var(&format!("X{i}"))).collect();
    let head = b.pred_var("R");
    b.head_pattern(head, vec![xs[1], xs[2]]);
    for i in 1..=arms {
        let p = b.pred_var(&format!("P{i}"));
        b.body_pattern(p, vec![xs[0], xs[i]]);
    }
    for i in 1..=arms {
        for j in (i + 1)..=arms {
            b.body_atom(rim_rel, vec![xs[i], xs[j]]);
        }
    }
    b.build()
}

/// Schema-driven metaquery generation (§1: metaqueries "can be
/// automatically generated from the database schema"): all chain
/// metaqueries of the given length whose patterns can match the schema's
/// binary relations — returned as the single generic chain, since the
/// engine's instantiation enumeration explores the relation choices.
/// Returns `None` if the schema has no binary relations.
pub fn from_schema_chains(db: &Database, len: usize) -> Option<Metaquery> {
    let has_binary = db.relations().any(|r| r.arity() == 2);
    if !has_binary {
        return None;
    }
    Some(chain(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_core::engine::find_rules::body_decomposition;
    use mq_cq::hypertree::hypertree_width_of_sets;

    /// `body(mq)`'s least-width decomposition, searched from the body
    /// edge sets, one `λ/χ/parent` entry per vertex in vertex order.
    /// `Setup::enum_order` and the scheduler's split follow this tree, so
    /// pinning it pins the enumeration order too.
    fn tree(mq: &Metaquery) -> String {
        let edges: Vec<_> = mq.body.iter().map(|l| l.var_set()).collect();
        let (_, ht) = hypertree_width_of_sets(&edges).expect("non-empty body");
        (0..ht.len())
            .map(|i| {
                let chi: Vec<u32> = ht.nodes[i].chi.iter().map(|v| v.0).collect();
                let parent = ht.parent[i].map_or("-".to_string(), |p| p.to_string());
                format!("{:?}/{chi:?}/{parent}", ht.nodes[i].lambda)
            })
            .collect::<Vec<_>>()
            .join("  ")
    }

    #[test]
    fn chain_width_one() {
        for m in 1..=5 {
            assert_eq!(body_decomposition(&chain(m)).width, 1, "chain({m})");
            let path: Vec<String> = (0..m)
                .map(|i| {
                    let parent = i.checked_sub(1).map_or("-".to_string(), |p| p.to_string());
                    format!("[{i}]/[{i}, {}]/{parent}", i + 1)
                })
                .collect();
            assert_eq!(tree(&chain(m)), path.join("  "), "chain({m})");
        }
    }

    #[test]
    fn star_width_one() {
        for m in 1..=5 {
            assert_eq!(body_decomposition(&star(m)).width, 1, "star({m})");
            let spokes: Vec<String> = (0..m)
                .map(|i| {
                    let parent = if i == 0 { "-" } else { "0" };
                    format!("[{i}]/[0, {}]/{parent}", i + 1)
                })
                .collect();
            assert_eq!(tree(&star(m)), spokes.join("  "), "star({m})");
        }
    }

    #[test]
    fn cycle_width_two() {
        for m in 4..=6 {
            assert_eq!(body_decomposition(&cycle(m)).width, 2, "cycle({m})");
            let fan: Vec<String> = std::iter::once("[0]/[0, 1]/-".to_string())
                .chain((1..m - 1).map(|i| format!("[0, {i}]/[0, {i}, {}]/{}", i + 1, i - 1)))
                .collect();
            assert_eq!(tree(&cycle(m)), fan.join("  "), "cycle({m})");
        }
    }

    #[test]
    fn hybrid_star_width_three() {
        let mq = hybrid_star(4, "rim");
        assert_eq!(body_decomposition(&mq).width, 3, "K5 has width 3");
        assert_eq!(
            tree(&mq),
            "[0]/[0, 1]/-  [0, 1]/[0, 1, 2]/0  [0, 1, 2]/[0, 1, 2, 3]/1  \
             [0, 1, 9]/[0, 1, 2, 3, 4]/2"
        );
        assert_eq!(mq.relation_patterns().len(), 5, "head + 4 spokes");
        assert_eq!(mq.body.len(), 4 + 6, "4 spokes + C(4,2) rim atoms");
        assert!(mq.is_pure());
        // Smaller hybrid: K4 is the width-2 wheel.
        assert_eq!(body_decomposition(&hybrid_star(3, "rim")).width, 2);
        assert_eq!(
            tree(&hybrid_star(3, "rim")),
            "[0]/[0, 1]/-  [0, 1]/[0, 1, 2]/0  [0, 5]/[0, 1, 2, 3]/1"
        );
    }

    #[test]
    fn clique_width_half_n() {
        assert_eq!(body_decomposition(&clique(4)).width, 2);
        assert_eq!(body_decomposition(&clique(6)).width, 3);
        assert_eq!(
            tree(&clique(4)),
            "[0]/[0, 1]/-  [0, 1]/[0, 1, 2]/0  [0, 5]/[0, 1, 2, 3]/1"
        );
        assert_eq!(
            tree(&clique(6)),
            "[0]/[0, 1]/-  [0, 1]/[0, 1, 2]/0  [0, 1, 2]/[0, 1, 2, 3]/1  \
             [0, 1, 12]/[0, 1, 2, 3, 4]/2  [0, 9, 14]/[0, 1, 2, 3, 4, 5]/3"
        );
    }

    /// Example 4.8's `Qex = {P(A,B), Q(B,C), R(C,D), S(B,D)}` as a
    /// metaquery body: width 2.
    #[test]
    fn example_4_8_width_two() {
        let mut b = MetaqueryBuilder::new();
        let x: Vec<_> = ["A", "B", "C", "D"].iter().map(|n| b.var(n)).collect();
        let head = b.pred_var("H");
        b.head_pattern(head, vec![x[0], x[3]]);
        for (name, (i, j)) in ["P", "Q", "R", "S"]
            .iter()
            .zip([(0, 1), (1, 2), (2, 3), (1, 3)])
        {
            let p = b.pred_var(name);
            b.body_pattern(p, vec![x[i], x[j]]);
        }
        let mq = b.build();
        assert_eq!(body_decomposition(&mq).width, 2);
        assert_eq!(
            tree(&mq),
            "[0]/[0, 1]/-  [0, 1]/[1, 2]/0  [0, 2]/[1, 2, 3]/1"
        );
    }

    #[test]
    fn shapes_are_pure() {
        assert!(chain(3).is_pure());
        assert!(star(3).is_pure());
        assert!(cycle(4).is_pure());
        assert!(clique(4).is_pure());
    }

    #[test]
    fn schema_chains() {
        let mut db = Database::new();
        db.add_relation("unary", 1);
        assert!(from_schema_chains(&db, 2).is_none());
        db.add_relation("pair", 2);
        assert!(from_schema_chains(&db, 2).is_some());
    }
}
