//! The paper's §4 cost model, as data.
//!
//! The end of §4 analyzes `findRules` in six parameters: `n` relations in
//! `DB`, `d` = size of the largest relation, `b` = maximum relation
//! arity, `a` = maximum relation-pattern arity, `m` = number of relation
//! patterns in `MQ`, and `c` = hypertree width of `body(MQ)`. The
//! support phase costs `n^(m-1) · d^c · log d` steps for types 0/1 and
//! `(n·b^a)^(m-1) · d^c · log d` for type 2; the cover/confidence search
//! adds `(n·d)^m` resp. `(n·b^a·d)^m`.
//!
//! [`CostModel`] extracts the parameters from a concrete `(DB, MQ)` pair
//! and evaluates the bounds, and [`CostModel::instantiation_bound`] gives
//! a bound on the number of instantiations that is *validated against
//! the actual enumeration* in this module's tests.

use crate::ast::Metaquery;
use crate::engine::find_rules::body_decomposition;
use crate::instantiate::InstType;
use mq_relation::Database;

/// The six parameters of the §4 analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Number of relations in the database (`n`).
    pub n: usize,
    /// Size of the largest relation (`d`).
    pub d: usize,
    /// Maximum arity of any database relation (`b`).
    pub b: usize,
    /// Maximum arity of any relation pattern in the metaquery (`a`).
    pub a: usize,
    /// Number of relation patterns of the metaquery (`m`).
    pub m: usize,
    /// Hypertree width of `body(MQ)` (`c`).
    pub c: usize,
}

fn factorial(k: usize) -> f64 {
    (1..=k).map(|i| i as f64).product()
}

impl CostModel {
    /// Extract the parameters from a database and metaquery.
    pub fn of(db: &Database, mq: &Metaquery) -> CostModel {
        let a = mq
            .relation_patterns()
            .iter()
            .map(|(_, l)| l.arity())
            .max()
            .unwrap_or(0);
        CostModel {
            n: db.num_relations(),
            d: db.max_relation_size(),
            b: db.max_arity(),
            a,
            m: mq.relation_patterns().len(),
            c: body_decomposition(mq).width,
        }
    }

    /// Per-pattern choice bound: how many `(relation, argument map)`
    /// candidates one pattern has under `ty`. The paper folds the
    /// (constant) permutation factor into the `O(·)`; we keep it so the
    /// bound actually dominates the enumeration.
    pub fn per_pattern_choices(&self, ty: InstType) -> f64 {
        let n = self.n as f64;
        match ty {
            InstType::Zero => n,
            InstType::One => n * factorial(self.a),
            InstType::Two => {
                // arrangements of a pattern's args into b positions:
                // b!/(b-a)!, at most b^a — the paper uses b^a.
                n * (self.b as f64).powi(self.a as i32)
            }
        }
    }

    /// Bound on the total number of type-`ty` instantiations: the
    /// per-pattern choices raised to the number of patterns.
    pub fn instantiation_bound(&self, ty: InstType) -> f64 {
        self.per_pattern_choices(ty).powi(self.m as i32)
    }

    /// §4: steps to find all high-support body instantiations —
    /// `n^(m-1) · d^c · log d` for types 0/1, with `n` replaced by
    /// `n·b^a` for type 2.
    pub fn support_phase_steps(&self, ty: InstType) -> f64 {
        let base = match ty {
            InstType::Zero | InstType::One => self.n as f64,
            InstType::Two => self.n as f64 * (self.b as f64).powi(self.a as i32),
        };
        let d = self.d.max(2) as f64;
        base.powi(self.m.saturating_sub(1) as i32) * d.powf(self.c as f64) * d.ln()
    }

    /// §4: additional steps for the cover/confidence search —
    /// `(n·d)^m` for types 0/1, `(n·b^a·d)^m` for type 2.
    pub fn head_phase_steps(&self, ty: InstType) -> f64 {
        let base = match ty {
            InstType::Zero | InstType::One => self.n as f64 * self.d as f64,
            InstType::Two => self.n as f64 * (self.b as f64).powi(self.a as i32) * self.d as f64,
        };
        base.powi(self.m as i32)
    }

    /// Total step bound for one `findRules` run.
    pub fn total_steps(&self, ty: InstType) -> f64 {
        self.support_phase_steps(ty) + self.head_phase_steps(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instantiate::count_instantiations;
    use crate::parse::parse_metaquery;
    use mq_relation::ints;
    use rand::prelude::*;

    fn random_db(rng: &mut StdRng, n_rels: usize, max_arity: usize) -> Database {
        let mut db = Database::new();
        for i in 0..n_rels {
            let arity = rng.gen_range(1..=max_arity);
            let rel = db.add_relation(format!("r{i}"), arity);
            for _ in 0..rng.gen_range(1..6) {
                let row: Vec<_> = (0..arity)
                    .map(|_| mq_relation::Value::Int(rng.gen_range(0..4)))
                    .collect();
                db.insert(rel, row.into_boxed_slice());
            }
        }
        db
    }

    #[test]
    fn parameters_extracted() {
        let mut db = Database::new();
        let p = db.add_relation("p", 2);
        db.add_relation("t", 3);
        db.insert(p, ints(&[1, 2]));
        db.insert(p, ints(&[3, 4]));
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        let cm = CostModel::of(&db, &mq);
        assert_eq!(cm.n, 2);
        assert_eq!(cm.d, 2);
        assert_eq!(cm.b, 3);
        assert_eq!(cm.a, 2);
        assert_eq!(cm.m, 3);
        assert_eq!(cm.c, 1);
    }

    /// The instantiation bound must dominate the actual enumeration count
    /// for every type on random schemas.
    #[test]
    fn bound_dominates_actual_counts() {
        let mut rng = StdRng::seed_from_u64(412);
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        for round in 0..10 {
            let n_rels = rng.gen_range(1..4);
            let db = random_db(&mut rng, n_rels, 3);
            let cm = CostModel::of(&db, &mq);
            for ty in InstType::ALL {
                let actual = count_instantiations(&db, &mq, ty).unwrap() as f64;
                let bound = cm.instantiation_bound(ty);
                assert!(
                    actual <= bound + 1e-9,
                    "round {round} {ty}: actual {actual} > bound {bound} ({cm:?})"
                );
            }
        }
    }

    #[test]
    fn bounds_are_monotone_in_type() {
        let mut db = Database::new();
        db.add_relation("p", 2);
        db.add_relation("q", 2);
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        let cm = CostModel::of(&db, &mq);
        assert!(cm.instantiation_bound(InstType::Zero) <= cm.instantiation_bound(InstType::One));
        assert!(cm.instantiation_bound(InstType::One) <= cm.instantiation_bound(InstType::Two));
        assert!(cm.support_phase_steps(InstType::Zero) <= cm.support_phase_steps(InstType::Two));
        assert!(cm.total_steps(InstType::Zero) > 0.0);
    }

    /// Width enters the support-phase bound exponentially in d.
    #[test]
    fn width_dependence() {
        let mut db = Database::new();
        let p = db.add_relation("p", 2);
        for i in 0..100 {
            db.insert(p, ints(&[i, i + 1]));
        }
        let chain = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        let cycle = parse_metaquery("R(X,Y) <- P(X,Y), Q(Y,Z), S(Z,W), T(W,X)").unwrap();
        let cm1 = CostModel::of(&db, &chain);
        let cm2 = CostModel::of(&db, &cycle);
        assert_eq!(cm1.c, 1);
        assert_eq!(cm2.c, 2);
        assert!(cm2.support_phase_steps(InstType::Zero) > cm1.support_phase_steps(InstType::Zero));
    }
}
