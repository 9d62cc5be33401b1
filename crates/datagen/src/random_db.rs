//! Seeded random database generators with controlled size, arity, domain
//! and skew — the synthetic workloads behind every scaling experiment
//! (the paper's cost model is stated in exactly these parameters: `n`
//! relations, `d` tuples in the largest relation, arity `b`).

use mq_relation::{Database, Value};
use rand::prelude::*;

/// Specification of a uniform random database.
#[derive(Clone, Debug)]
pub struct RandomDbSpec {
    /// Number of relations `n`.
    pub n_relations: usize,
    /// Arity of every relation `b`.
    pub arity: usize,
    /// Tuples per relation `d` (before deduplication).
    pub rows: usize,
    /// Values are drawn uniformly from `0..domain`.
    pub domain: i64,
    /// RNG seed (all experiments record their seeds).
    pub seed: u64,
}

impl RandomDbSpec {
    /// Generate the database. Relations are named `r0, r1, ...`.
    pub fn generate(&self) -> Database {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut db = Database::new();
        for i in 0..self.n_relations {
            let rel = db.add_relation(format!("r{i}"), self.arity);
            for _ in 0..self.rows {
                let row: Vec<Value> = (0..self.arity)
                    .map(|_| Value::Int(rng.gen_range(0..self.domain)))
                    .collect();
                db.insert(rel, row.into_boxed_slice());
            }
        }
        db
    }
}

/// A database with a *planted* chain rule: relations `r0..r{n-1}` random,
/// but `head` is built so that `head(X0, Xm) <- r0(X0,X1), ...,
/// r{m-1}(X{m-1},Xm)` holds with confidence close to `confidence`
/// (fraction of body-join tuples whose endpoints were copied into the
/// head). Mining should rediscover the planted rule.
#[derive(Clone, Debug)]
pub struct PlantedChainSpec {
    /// Number of body relations `m` (chain length).
    pub chain_len: usize,
    /// Tuples per body relation.
    pub rows: usize,
    /// Value domain.
    pub domain: i64,
    /// Target confidence of the planted rule, in `[0, 1]`.
    pub confidence: f64,
    /// RNG seed.
    pub seed: u64,
}

impl PlantedChainSpec {
    /// Generate the database. Body relations are `r0..r{m-1}`; the planted
    /// head relation is `head`.
    pub fn generate(&self) -> Database {
        assert!(self.chain_len >= 1);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut db = Database::new();
        let rels: Vec<_> = (0..self.chain_len)
            .map(|i| db.add_relation(format!("r{i}"), 2))
            .collect();
        for &rel in &rels {
            for _ in 0..self.rows {
                let row = vec![
                    Value::Int(rng.gen_range(0..self.domain)),
                    Value::Int(rng.gen_range(0..self.domain)),
                ];
                db.insert(rel, row.into_boxed_slice());
            }
        }
        // Materialize the body join endpoints (X0, Xm) by walking chains.
        let head = db.add_relation("head", 2);
        let endpoints = chain_endpoints(&db, self.chain_len);
        let mut inserted = 0usize;
        for (a, b) in &endpoints {
            if rng.gen_bool(self.confidence) {
                db.insert(head, vec![*a, *b].into_boxed_slice());
                inserted += 1;
            }
        }
        // Guarantee a non-empty head so cover/confidence are defined.
        if inserted == 0 {
            if let Some((a, b)) = endpoints.first() {
                db.insert(head, vec![*a, *b].into_boxed_slice());
            } else {
                db.insert(head, vec![Value::Int(0), Value::Int(0)].into_boxed_slice());
            }
        }
        db
    }
}

/// Distinct `(X0, Xm)` endpoint pairs of the chain join over `r0..r{m-1}`.
fn chain_endpoints(db: &Database, m: usize) -> Vec<(Value, Value)> {
    use std::collections::BTreeSet;
    let pairs = |name: &str| -> BTreeSet<(Value, Value)> {
        let c = db.rel(name).columnar();
        std::iter::zip(c.col(0).iter().copied(), c.col(1).iter().copied()).collect()
    };
    let mut frontier = pairs("r0");
    for i in 1..m {
        let next = pairs(&format!("r{i}"));
        let mut out = BTreeSet::new();
        for &(a, mid) in &frontier {
            for &(m2, b) in &next {
                if mid == m2 {
                    out.insert((a, b));
                }
            }
        }
        frontier = out;
    }
    frontier.into_iter().collect()
}

/// A skewed (Zipf-like) random database: value `v` is drawn with weight
/// `1/(v+1)^s`. High skew concentrates join keys, stressing the semijoin
/// reducers with heavy-hitter values.
#[derive(Clone, Debug)]
pub struct SkewedDbSpec {
    /// Number of relations.
    pub n_relations: usize,
    /// Arity of every relation.
    pub arity: usize,
    /// Tuples per relation.
    pub rows: usize,
    /// Domain size.
    pub domain: usize,
    /// Zipf exponent `s >= 0` (0 = uniform).
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SkewedDbSpec {
    /// Generate the database.
    pub fn generate(&self) -> Database {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Cumulative weights.
        let weights: Vec<f64> = (0..self.domain)
            .map(|v| 1.0 / ((v + 1) as f64).powf(self.skew))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut cumulative = Vec::with_capacity(self.domain);
        let mut acc = 0.0;
        for w in &weights {
            acc += w;
            cumulative.push(acc / total);
        }
        let draw = |rng: &mut StdRng| -> i64 {
            let x: f64 = rng.gen();
            cumulative
                .iter()
                .position(|&c| x <= c)
                .unwrap_or(self.domain - 1) as i64
        };
        let mut db = Database::new();
        for i in 0..self.n_relations {
            let rel = db.add_relation(format!("r{i}"), self.arity);
            for _ in 0..self.rows {
                let row: Vec<Value> = (0..self.arity)
                    .map(|_| Value::Int(draw(&mut rng)))
                    .collect();
                db.insert(rel, row.into_boxed_slice());
            }
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_db_is_reproducible() {
        let spec = RandomDbSpec {
            n_relations: 3,
            arity: 2,
            rows: 20,
            domain: 10,
            seed: 7,
        };
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.num_relations(), 3);
        for (ra, rb) in a.relations().zip(b.relations()) {
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn planted_rule_has_high_confidence() {
        use mq_core::index::confidence;
        use mq_core::rule::Rule;
        use mq_cq::Atom;
        let spec = PlantedChainSpec {
            chain_len: 2,
            rows: 60,
            domain: 12,
            confidence: 0.9,
            seed: 13,
        };
        let db = spec.generate();
        let mut pool = mq_core::ast::VarPool::new();
        let (x0, x1, x2) = (pool.var("X0"), pool.var("X1"), pool.var("X2"));
        let rule = Rule {
            head: Atom::vars_atom(db.rel_id("head").unwrap(), &[x0, x2]),
            body: vec![
                Atom::vars_atom(db.rel_id("r0").unwrap(), &[x0, x1]),
                Atom::vars_atom(db.rel_id("r1").unwrap(), &[x1, x2]),
            ],
            neg_body: vec![],
            var_names: pool,
        };
        let cnf = confidence(&db, &rule);
        assert!(
            cnf.to_f64() > 0.6,
            "planted confidence should be high, got {cnf}"
        );
    }

    #[test]
    fn skew_concentrates_values() {
        let uniform = SkewedDbSpec {
            n_relations: 1,
            arity: 1,
            rows: 600,
            domain: 50,
            skew: 0.0,
            seed: 3,
        }
        .generate();
        let skewed = SkewedDbSpec {
            n_relations: 1,
            arity: 1,
            rows: 600,
            domain: 50,
            skew: 2.0,
            seed: 3,
        }
        .generate();
        // Distinct values surviving dedup: skew should give fewer.
        assert!(skewed.rel("r0").len() < uniform.rel("r0").len());
    }

    #[test]
    fn chain_endpoints_match_join() {
        let spec = RandomDbSpec {
            n_relations: 2,
            arity: 2,
            rows: 15,
            domain: 5,
            seed: 21,
        };
        let db = spec.generate();
        let eps = chain_endpoints(&db, 2);
        // Cross-check against the algebra.
        use mq_relation::{Bindings, Term, VarId};
        let b0 = Bindings::from_atom(db.rel("r0"), &[Term::Var(VarId(0)), Term::Var(VarId(1))]);
        let b1 = Bindings::from_atom(db.rel("r1"), &[Term::Var(VarId(1)), Term::Var(VarId(2))]);
        let join = b0.join(&b1);
        assert_eq!(eps.len(), join.count_distinct(&[VarId(0), VarId(2)]));
    }
}
