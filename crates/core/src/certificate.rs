//! Executable NP certificates (Theorems 3.21, 3.24, 3.27).
//!
//! The membership proofs of §3.3 exhibit *succinct certificates*:
//!
//! * for `⟨DB, MQ, I, 0, T⟩` — an instantiation plus a single ground
//!   instance of the certifying set (Proposition 3.20 / Theorem 3.21);
//! * for `⟨DB, MQ, cvr/sup, k, T⟩` — an instantiation plus
//!   `⌊k·den⌋ + 1` substitutions, pairwise distinct on the counted
//!   attribute set (Theorem 3.24);
//! * for `⟨DB, MQ, cnf, k, T⟩` — an instantiation plus claimed counts
//!   `a = |A|`, `b = |B|` whose verification needs a `#BCQ` oracle
//!   (Theorem 3.27: the problem is in `NP^PP = NP^#P`).
//!
//! This module implements the certificates as data plus polynomial-time
//! verifiers (`verify_*`), and extractors that produce them from a YES
//! instance. They make the NP-membership arguments *runnable*: tests
//! check `extract → verify` round trips and that tampered certificates
//! are rejected.

use crate::ast::Metaquery;
use crate::index::IndexKind;
use crate::instantiate::{apply_instantiation, InstError, Instantiation};
use crate::rule::Rule;
use mq_cq::{count_homomorphisms, Atom, Cq};
use mq_relation::{Bindings, Database, Frac, Term, Tuple, Value, VarId};
use std::collections::HashSet;

/// A set of witness substitutions: assignments of the rule's variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witnesses {
    /// The variables assigned by each row.
    pub vars: Vec<VarId>,
    /// One row per substitution.
    pub rows: Vec<Tuple>,
}

/// Certificate for `⟨DB, MQ, cvr, k, T⟩` and `⟨DB, MQ, sup, k, T⟩`
/// (Theorem 3.24), which also covers the `k = 0` problems (one witness).
#[derive(Clone, Debug)]
pub struct ThresholdCertificate {
    /// The guessed instantiation `σ`.
    pub inst: Instantiation,
    /// Which index the certificate is for (`Cvr` or `Sup`).
    pub kind: IndexKind,
    /// For support: the body-atom index `j` with `|Aj|/|Bj| > k`.
    pub sup_atom: Option<usize>,
    /// `⌊k·den⌋ + 1` substitutions, distinct on the counted attributes.
    pub witnesses: Witnesses,
}

/// Certificate for `⟨DB, MQ, cnf, k, T⟩` (Theorem 3.27): claimed counts,
/// checkable with a `#BCQ` oracle.
#[derive(Clone, Debug)]
pub struct CnfCertificate {
    /// The guessed instantiation `σ`.
    pub inst: Instantiation,
    /// Claimed `|A|`: tuples of the body join that extend to the head.
    pub a: u128,
    /// Claimed `|B|`: tuples of the body join.
    pub b: u128,
}

/// Check a single witness substitution against a set of atoms: every atom,
/// after substituting, must be a tuple of its relation. Polynomial time.
fn witness_satisfies(db: &Database, atoms: &[&Atom], vars: &[VarId], row: &[Value]) -> bool {
    let lookup = |v: VarId| -> Option<Value> { vars.iter().position(|&u| u == v).map(|i| row[i]) };
    for atom in atoms {
        let mut ground = Vec::with_capacity(atom.terms.len());
        for t in &atom.terms {
            match t {
                Term::Const(c) => ground.push(*c),
                Term::Var(v) => match lookup(*v) {
                    Some(val) => ground.push(val),
                    None => return false, // witness must assign every var
                },
            }
        }
        if !db.relation(atom.rel).contains(&ground) {
            return false;
        }
    }
    true
}

/// Distinct variables of an atom.
fn atom_vars(atom: &Atom) -> Vec<VarId> {
    mq_relation::distinct_vars(&atom.terms)
}

/// Verify a [`ThresholdCertificate`] in polynomial time: checks that
/// `I(σ(MQ)) > k` is *witnessed* (it does not re-compute the index).
pub fn verify_threshold(
    db: &Database,
    mq: &Metaquery,
    k: Frac,
    cert: &ThresholdCertificate,
) -> Result<bool, InstError> {
    let rule = apply_instantiation(db, mq, &cert.inst)?;
    let (den, counted_vars, atoms): (u64, Vec<VarId>, Vec<&Atom>) = match cert.kind {
        IndexKind::Cvr => {
            // den = |J(h)|; witnesses satisfy head ∧ body, distinct on
            // att(head).
            let jh = Bindings::from_atom(db.relation(rule.head.rel), &rule.head.terms);
            let atoms: Vec<&Atom> = rule.atoms().collect();
            (jh.len() as u64, atom_vars(&rule.head), atoms)
        }
        IndexKind::Sup => {
            let j = match cert.sup_atom {
                Some(j) if j < rule.body.len() => j,
                _ => return Ok(false),
            };
            let aj = &rule.body[j];
            let ja = Bindings::from_atom(db.relation(aj.rel), &aj.terms);
            let atoms: Vec<&Atom> = rule.body.iter().collect();
            (ja.len() as u64, atom_vars(aj), atoms)
        }
        IndexKind::Cnf => return Ok(false), // use verify_cnf_with_oracle
    };
    let needed = k.floor_mul(den) + 1;
    if (cert.witnesses.rows.len() as u64) < needed {
        return Ok(false);
    }
    if den == 0 {
        // index is 0 by definition; nothing exceeds k ≥ 0 strictly
        return Ok(false);
    }
    // Each witness satisfies the atom set; witnesses pairwise distinct on
    // the counted attributes.
    let positions: Vec<usize> = counted_vars
        .iter()
        .filter_map(|&v| cert.witnesses.vars.iter().position(|&u| u == v))
        .collect();
    if positions.len() != counted_vars.len() {
        return Ok(false);
    }
    let mut seen: HashSet<Tuple> = HashSet::new();
    for row in &cert.witnesses.rows {
        if row.len() != cert.witnesses.vars.len() {
            return Ok(false);
        }
        if !witness_satisfies(db, &atoms, &cert.witnesses.vars, row) {
            return Ok(false);
        }
        let key: Tuple = positions.iter().map(|&p| row[p]).collect();
        if !seen.insert(key) {
            return Ok(false); // not distinct on counted attributes
        }
    }
    Ok(true)
}

/// Extract a [`ThresholdCertificate`] from a YES instance, or `None` for a
/// NO instance. (The extractor plays the role of the NP guess.)
pub fn extract_threshold(
    db: &Database,
    mq: &Metaquery,
    ty: crate::instantiate::InstType,
    kind: IndexKind,
    k: Frac,
) -> Result<Option<ThresholdCertificate>, InstError> {
    use std::ops::ControlFlow;
    let mut result = None;
    crate::instantiate::for_each_instantiation(db, mq, ty, |inst| {
        let rule = apply_instantiation(db, mq, inst).expect("valid inst");
        if let Some(cert) = try_build(db, &rule, kind, k) {
            result = Some(ThresholdCertificate {
                inst: inst.clone(),
                kind,
                sup_atom: cert.0,
                witnesses: cert.1,
            });
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })?;
    Ok(result)
}

fn try_build(
    db: &Database,
    rule: &Rule,
    kind: IndexKind,
    k: Frac,
) -> Option<(Option<usize>, Witnesses)> {
    match kind {
        IndexKind::Cvr => {
            let jh = Bindings::from_atom(db.relation(rule.head.rel), &rule.head.terms);
            if jh.is_empty() {
                return None;
            }
            let needed = k.floor_mul(jh.len() as u64) + 1;
            let all: Vec<&Atom> = rule.atoms().collect();
            let joint = crate::index::join_of(db, &all);
            let witnesses = pick_distinct(&joint, &atom_vars(&rule.head), needed)?;
            Some((None, witnesses))
        }
        IndexKind::Sup => {
            let body: Vec<&Atom> = rule.body.iter().collect();
            let jb = crate::index::join_of(db, &body);
            for (j, aj) in rule.body.iter().enumerate() {
                let ja = Bindings::from_atom(db.relation(aj.rel), &aj.terms);
                if ja.is_empty() {
                    continue;
                }
                let needed = k.floor_mul(ja.len() as u64) + 1;
                if let Some(witnesses) = pick_distinct(&jb, &atom_vars(aj), needed) {
                    return Some((Some(j), witnesses));
                }
            }
            None
        }
        IndexKind::Cnf => None,
    }
}

/// Pick `needed` rows of `joint` pairwise distinct on `key_vars`.
fn pick_distinct(joint: &Bindings, key_vars: &[VarId], needed: u64) -> Option<Witnesses> {
    let positions: Vec<usize> = key_vars.iter().filter_map(|&v| joint.position(v)).collect();
    if positions.len() != key_vars.len() {
        return None;
    }
    let mut seen: HashSet<Tuple> = HashSet::new();
    let mut rows = Vec::new();
    for row in joint.to_rows() {
        let key: Tuple = positions.iter().map(|&p| row[p]).collect();
        if seen.insert(key) {
            rows.push(row);
            if rows.len() as u64 == needed {
                return Some(Witnesses {
                    vars: joint.vars().to_vec(),
                    rows,
                });
            }
        }
    }
    None
}

/// Verify a [`CnfCertificate`] using a `#BCQ` oracle (Theorem 3.27's
/// `NP^PP` membership): the claimed counts are checked against exact
/// counting, then `a > ⌊k·b⌋` decides. The two oracle calls are the only
/// super-polynomial work, mirroring the complexity-theoretic structure.
pub fn verify_cnf_with_oracle(
    db: &Database,
    mq: &Metaquery,
    k: Frac,
    cert: &CnfCertificate,
) -> Result<bool, InstError> {
    let rule = apply_instantiation(db, mq, &cert.inst)?;
    // Oracle call 1: |B| = #BCQ(body).
    let b = count_homomorphisms(db, &Cq::new(rule.body.clone()));
    if b != cert.b {
        return Ok(false);
    }
    // Oracle call 2: |A| = number of body tuples extending to the head.
    // Counted over att(body): body assignments with a matching head tuple.
    let body: Vec<&Atom> = rule.body.iter().collect();
    let jb = crate::index::join_of(db, &body);
    let jh = Bindings::from_atom(db.relation(rule.head.rel), &rule.head.terms);
    let a = jb.semijoin(&jh).len() as u128;
    if a != cert.a {
        return Ok(false);
    }
    if b == 0 {
        return Ok(false);
    }
    // cnf = a/b > k  ⟺  a·k.den > k.num·b
    let lhs = cert.a * k.den() as u128;
    let rhs = k.num() as u128 * cert.b;
    Ok(lhs > rhs)
}

/// Extract a [`CnfCertificate`] from a YES instance.
pub fn extract_cnf(
    db: &Database,
    mq: &Metaquery,
    ty: crate::instantiate::InstType,
    k: Frac,
) -> Result<Option<CnfCertificate>, InstError> {
    use std::ops::ControlFlow;
    let mut result = None;
    crate::instantiate::for_each_instantiation(db, mq, ty, |inst| {
        let rule = apply_instantiation(db, mq, inst).expect("valid inst");
        let body: Vec<&Atom> = rule.body.iter().collect();
        let jb = crate::index::join_of(db, &body);
        let b = jb.len() as u128;
        if b == 0 {
            return ControlFlow::Continue(());
        }
        let jh = Bindings::from_atom(db.relation(rule.head.rel), &rule.head.terms);
        let a = jb.semijoin(&jh).len() as u128;
        if a * k.den() as u128 > k.num() as u128 * b {
            result = Some(CnfCertificate {
                inst: inst.clone(),
                a,
                b,
            });
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{naive, MqProblem};
    use crate::instantiate::InstType;
    use crate::parse::parse_metaquery;
    use mq_relation::ints;
    use rand::prelude::*;

    fn random_db(rng: &mut StdRng, rows: usize, dom: i64) -> Database {
        let mut db = Database::new();
        let p = db.add_relation("p", 2);
        let q = db.add_relation("q", 2);
        for _ in 0..rows {
            db.insert(p, ints(&[rng.gen_range(0..dom), rng.gen_range(0..dom)]));
            db.insert(q, ints(&[rng.gen_range(0..dom), rng.gen_range(0..dom)]));
        }
        db
    }

    #[test]
    fn extract_verify_roundtrip_cvr_sup() {
        let mut rng = StdRng::seed_from_u64(21);
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        for _ in 0..10 {
            let db = random_db(&mut rng, 10, 4);
            for kind in [IndexKind::Cvr, IndexKind::Sup] {
                for k in [Frac::ZERO, Frac::new(1, 4), Frac::new(1, 2)] {
                    let cert = extract_threshold(&db, &mq, InstType::Zero, kind, k).unwrap();
                    let is_yes = naive::decide(
                        &db,
                        &mq,
                        MqProblem {
                            index: kind,
                            threshold: k,
                            ty: InstType::Zero,
                        },
                    )
                    .unwrap();
                    assert_eq!(cert.is_some(), is_yes, "{kind} k={k}");
                    if let Some(cert) = cert {
                        assert!(verify_threshold(&db, &mq, k, &cert).unwrap());
                    }
                }
            }
        }
    }

    #[test]
    fn tampered_certificates_rejected() {
        let mut rng = StdRng::seed_from_u64(22);
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        let db = random_db(&mut rng, 12, 3);
        let k = Frac::new(1, 4);
        let cert = extract_threshold(&db, &mq, InstType::Zero, IndexKind::Cvr, k)
            .unwrap()
            .expect("dense db should have an answer");
        // Drop a witness: too few.
        let mut fewer = cert.clone();
        fewer.witnesses.rows.pop();
        assert!(!verify_threshold(&db, &mq, k, &fewer).unwrap());
        // Duplicate a witness: not distinct.
        let mut dup = cert.clone();
        let first = dup.witnesses.rows[0].clone();
        let last = dup.witnesses.rows.len() - 1;
        dup.witnesses.rows[last] = first;
        assert!(!verify_threshold(&db, &mq, k, &dup).unwrap());
        // Corrupt a value: fails satisfaction (or distinctness).
        let mut bad = cert.clone();
        bad.witnesses.rows[0] = bad.witnesses.rows[0]
            .iter()
            .map(|_| Value::Int(-77))
            .collect();
        assert!(!verify_threshold(&db, &mq, k, &bad).unwrap());
    }

    #[test]
    fn cnf_certificate_oracle_roundtrip() {
        let mut rng = StdRng::seed_from_u64(23);
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        for _ in 0..8 {
            let db = random_db(&mut rng, 8, 4);
            for k in [Frac::ZERO, Frac::new(1, 3)] {
                let cert = extract_cnf(&db, &mq, InstType::Zero, k).unwrap();
                let is_yes = naive::decide(
                    &db,
                    &mq,
                    MqProblem {
                        index: IndexKind::Cnf,
                        threshold: k,
                        ty: InstType::Zero,
                    },
                )
                .unwrap();
                assert_eq!(cert.is_some(), is_yes, "cnf k={k}");
                if let Some(cert) = cert {
                    assert!(verify_cnf_with_oracle(&db, &mq, k, &cert).unwrap());
                    // Tampered counts must be rejected.
                    let mut bad = cert.clone();
                    bad.a += 1;
                    assert!(!verify_cnf_with_oracle(&db, &mq, k, &bad).unwrap());
                }
            }
        }
    }
}
