//! Instantiation semantics: types 0, 1 and 2 (Definitions 2.1-2.4).
//!
//! An instantiation `σ : rep(MQ) → ato(DB)` maps each relation pattern to
//! an atom over a database relation such that the restriction
//! `σ' : pv(MQ) → rel(DB)` is *functional* — two patterns sharing a
//! predicate variable must use the same relation (but may arrange their
//! arguments differently under types 1 and 2).
//!
//! * **type-0** (pure MQ): same arity, arguments untouched;
//! * **type-1** (pure MQ): same arity, arguments permuted;
//! * **type-2** (any MQ): relation arity `k' ≥ k`, the `k` scheme
//!   arguments placed injectively, remaining positions padded with fresh
//!   mute variables not occurring elsewhere in the instantiated rule.
//!
//! Every type-0 instantiation is type-1, and every type-1 is type-2 (the
//! paper's remark after Definition 2.4) — property-tested in this module.

use crate::ast::{LiteralScheme, Metaquery, Pred, PredVarId};
use crate::rule::Rule;
use mq_cq::hypertree::MASK_BITS;
use mq_cq::Atom;
use mq_relation::{Database, RelId, Term, VarId};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::ops::ControlFlow;

/// The instantiation type `T ∈ {0, 1, 2}`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InstType {
    /// Definition 2.2: arity-preserving, identity argument map.
    Zero,
    /// Definition 2.3: arity-preserving, arguments permuted.
    One,
    /// Definition 2.4: arity-expanding with fresh padding variables.
    Two,
}

impl InstType {
    /// All three types, for sweeps.
    pub const ALL: [InstType; 3] = [InstType::Zero, InstType::One, InstType::Two];

    /// Numeric tag as in the paper.
    pub fn tag(self) -> u8 {
        match self {
            InstType::Zero => 0,
            InstType::One => 1,
            InstType::Two => 2,
        }
    }
}

impl fmt::Display for InstType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type-{}", self.tag())
    }
}

/// How one relation pattern is instantiated.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PatternMap {
    /// The relation the pattern maps to.
    pub rel: RelId,
    /// For each position of the relation (length = relation arity):
    /// `Some(i)` places the pattern's `i`-th argument there; `None` pads
    /// with a fresh mute variable.
    pub slots: Vec<Option<usize>>,
}

/// A complete instantiation: one [`PatternMap`] per relation pattern, in
/// `rep(MQ)` order (head pattern first, then body patterns left to right).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Instantiation {
    /// Per-pattern maps.
    pub maps: Vec<PatternMap>,
}

/// Errors raised by instantiation enumeration/application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstError {
    /// Types 0 and 1 are only defined for pure metaqueries (§2.1).
    NotPure,
    /// A negated literal scheme uses a variable that occurs in no
    /// positive body scheme (unsafe negation; extension).
    UnsafeNegation,
    /// A relation symbol in the metaquery does not exist in the database.
    UnknownRelation(String),
    /// A relation-symbol literal scheme has the wrong arity for its
    /// relation.
    ArityMismatch {
        /// The relation name.
        relation: String,
        /// Arity in the metaquery.
        scheme_arity: usize,
        /// Arity in the database.
        relation_arity: usize,
    },
    /// The search overran its wall-clock deadline and was cooperatively
    /// cancelled (serving-layer per-request budget; see
    /// [`crate::engine::find_rules::find_rules_instrumented`]).
    DeadlineExceeded {
        /// The budget the search was given, in milliseconds.
        budget_ms: u64,
    },
    /// The positive body has more literals or distinct variables than the
    /// hypertree search's masks hold ([`MASK_BITS`] of each).
    BodyTooLarge {
        /// Positive body literals.
        literals: usize,
        /// Distinct ordinary variables of the positive body.
        vars: usize,
    },
}

impl fmt::Display for InstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstError::NotPure => {
                write!(f, "type-0/1 instantiation requires a pure metaquery")
            }
            InstError::UnsafeNegation => {
                write!(f, "negated literals must only use positive-body variables")
            }
            InstError::UnknownRelation(name) => {
                write!(f, "relation `{name}` not found in database")
            }
            InstError::ArityMismatch {
                relation,
                scheme_arity,
                relation_arity,
            } => write!(
                f,
                "scheme arity {scheme_arity} does not match relation `{relation}` arity {relation_arity}"
            ),
            InstError::DeadlineExceeded { budget_ms } => {
                write!(f, "search exceeded its {budget_ms}ms deadline")
            }
            InstError::BodyTooLarge { literals, vars } => write!(
                f,
                "body has {literals} literals over {vars} variables; at most {MASK_BITS} of each are supported"
            ),
        }
    }
}

impl std::error::Error for InstError {}

/// Candidate slot maps for one pattern against one relation, deduplicated
/// by the variable layout they induce (permutations that move equal
/// variables onto each other are identical instantiations).
fn slot_candidates(
    scheme: &LiteralScheme,
    rel_arity: usize,
    ty: InstType,
) -> Vec<Vec<Option<usize>>> {
    let k = scheme.arity();
    match ty {
        InstType::Zero => {
            if rel_arity != k {
                return Vec::new();
            }
            vec![(0..k).map(Some).collect()]
        }
        InstType::One => {
            if rel_arity != k {
                return Vec::new();
            }
            let mut out = Vec::new();
            let mut seen = std::collections::HashSet::new();
            permute(k, &mut |perm| {
                // perm[j] = which scheme argument lands at position j
                let key: Vec<VarId> = perm.iter().map(|&i| scheme.args[i]).collect();
                if seen.insert(key) {
                    out.push(perm.iter().map(|&i| Some(i)).collect());
                }
            });
            out
        }
        InstType::Two => {
            if rel_arity < k {
                return Vec::new();
            }
            let mut out = Vec::new();
            let mut seen = std::collections::HashSet::new();
            // Choose an injective placement of the k scheme args into
            // rel_arity positions: enumerate ordered arrangements.
            let mut slots: Vec<Option<usize>> = vec![None; rel_arity];
            arrange(k, rel_arity, &mut slots, 0, &mut |slots| {
                let key: Vec<Option<VarId>> =
                    slots.iter().map(|s| s.map(|i| scheme.args[i])).collect();
                if seen.insert(key) {
                    out.push(slots.to_vec());
                }
            });
            out
        }
    }
}

/// Enumerate permutations of `0..k` (Heap's algorithm, small k).
fn permute(k: usize, f: &mut impl FnMut(&[usize])) {
    let mut idx: Vec<usize> = (0..k).collect();
    fn rec(n: usize, idx: &mut Vec<usize>, f: &mut impl FnMut(&[usize])) {
        if n <= 1 {
            f(idx);
            return;
        }
        for i in 0..n {
            rec(n - 1, idx, f);
            if n.is_multiple_of(2) {
                idx.swap(i, n - 1);
            } else {
                idx.swap(0, n - 1);
            }
        }
    }
    rec(k, &mut idx, f);
}

/// Enumerate injective placements of scheme args `arg..k` into free slots.
fn arrange(
    k: usize,
    arity: usize,
    slots: &mut Vec<Option<usize>>,
    arg: usize,
    f: &mut impl FnMut(&[Option<usize>]),
) {
    if arg == k {
        f(slots);
        return;
    }
    for pos in 0..arity {
        if slots[pos].is_none() {
            slots[pos] = Some(arg);
            arrange(k, arity, slots, arg + 1, f);
            slots[pos] = None;
        }
    }
}

/// Per-pattern candidates: relation -> slot maps.
pub(crate) fn pattern_candidates(
    db: &Database,
    scheme: &LiteralScheme,
    ty: InstType,
) -> HashMap<RelId, Vec<Vec<Option<usize>>>> {
    let mut out = HashMap::new();
    for rel in db.rel_ids() {
        let cands = slot_candidates(scheme, db.relation(rel).arity(), ty);
        if !cands.is_empty() {
            out.insert(rel, cands);
        }
    }
    out
}

/// Validate the metaquery's relation-symbol schemes against the database.
pub(crate) fn check_fixed_schemes(db: &Database, mq: &Metaquery) -> Result<(), InstError> {
    for scheme in mq.literal_schemes() {
        if let Pred::Rel(name) = &scheme.pred {
            let id = db
                .rel_id(name)
                .ok_or_else(|| InstError::UnknownRelation(name.clone()))?;
            let ra = db.relation(id).arity();
            if ra != scheme.arity() {
                return Err(InstError::ArityMismatch {
                    relation: name.clone(),
                    scheme_arity: scheme.arity(),
                    relation_arity: ra,
                });
            }
        }
    }
    Ok(())
}

/// Check that `body(MQ)` fits the hypertree search: at most
/// [`MASK_BITS`] literals and as many distinct variables.
pub fn check_body_size(mq: &Metaquery) -> Result<(), InstError> {
    let literals = mq.body.len();
    let vars = mq
        .body
        .iter()
        .flat_map(|l| l.var_set())
        .collect::<BTreeSet<_>>()
        .len();
    if literals > MASK_BITS || vars > MASK_BITS {
        return Err(InstError::BodyTooLarge { literals, vars });
    }
    Ok(())
}

/// Visit every type-`ty` instantiation of `mq` over `db`. The callback can
/// stop the enumeration early via [`ControlFlow::Break`]; returns `true`
/// if enumeration was stopped early.
pub fn for_each_instantiation(
    db: &Database,
    mq: &Metaquery,
    ty: InstType,
    mut f: impl FnMut(&Instantiation) -> ControlFlow<()>,
) -> Result<bool, InstError> {
    if ty != InstType::Two && !mq.is_pure() {
        return Err(InstError::NotPure);
    }
    if !mq.is_safe() {
        return Err(InstError::UnsafeNegation);
    }
    check_fixed_schemes(db, mq)?;

    let patterns: Vec<&LiteralScheme> =
        mq.relation_patterns().into_iter().map(|(_, l)| l).collect();
    let candidates: Vec<HashMap<RelId, Vec<Vec<Option<usize>>>>> = patterns
        .iter()
        .map(|s| pattern_candidates(db, s, ty))
        .collect();

    // Backtrack over patterns, keeping the predicate-variable → relation
    // assignment functional.
    let mut pv_rel: HashMap<PredVarId, RelId> = HashMap::new();
    let mut maps: Vec<PatternMap> = Vec::with_capacity(patterns.len());

    fn rec(
        i: usize,
        patterns: &[&LiteralScheme],
        candidates: &[HashMap<RelId, Vec<Vec<Option<usize>>>>],
        pv_rel: &mut HashMap<PredVarId, RelId>,
        maps: &mut Vec<PatternMap>,
        f: &mut impl FnMut(&Instantiation) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if i == patterns.len() {
            return f(&Instantiation { maps: maps.clone() });
        }
        let pv = match patterns[i].pred {
            Pred::Var(p) => p,
            Pred::Rel(_) => unreachable!("patterns are relation patterns"),
        };
        let fixed = pv_rel.get(&pv).copied();
        let rels: Vec<RelId> = match fixed {
            Some(r) => {
                if candidates[i].contains_key(&r) {
                    vec![r]
                } else {
                    Vec::new()
                }
            }
            None => {
                let mut rels: Vec<RelId> = candidates[i].keys().copied().collect();
                rels.sort();
                rels
            }
        };
        for rel in rels {
            let inserted = fixed.is_none();
            if inserted {
                pv_rel.insert(pv, rel);
            }
            for slots in &candidates[i][&rel] {
                maps.push(PatternMap {
                    rel,
                    slots: slots.clone(),
                });
                let flow = rec(i + 1, patterns, candidates, pv_rel, maps, f);
                maps.pop();
                if flow.is_break() {
                    if inserted {
                        pv_rel.remove(&pv);
                    }
                    return ControlFlow::Break(());
                }
            }
            if inserted {
                pv_rel.remove(&pv);
            }
        }
        ControlFlow::Continue(())
    }

    let stopped = rec(0, &patterns, &candidates, &mut pv_rel, &mut maps, &mut f).is_break();
    Ok(stopped)
}

/// Collect every type-`ty` instantiation (beware: exponentially many in
/// the number of patterns under combined complexity).
pub fn enumerate_instantiations(
    db: &Database,
    mq: &Metaquery,
    ty: InstType,
) -> Result<Vec<Instantiation>, InstError> {
    let mut out = Vec::new();
    for_each_instantiation(db, mq, ty, |inst| {
        out.push(inst.clone());
        ControlFlow::Continue(())
    })?;
    Ok(out)
}

/// Count the type-`ty` instantiations without collecting them.
pub fn count_instantiations(db: &Database, mq: &Metaquery, ty: InstType) -> Result<u64, InstError> {
    let mut n = 0u64;
    for_each_instantiation(db, mq, ty, |_| {
        n += 1;
        ControlFlow::Continue(())
    })?;
    Ok(n)
}

/// Apply an instantiation, producing the ordinary Horn rule `σ(MQ)`.
///
/// Fresh padding variables (type-2) are allocated from a copy of the
/// metaquery's variable pool, guaranteeing they occur nowhere else in the
/// instantiated rule (Definition 2.4, third bullet).
pub fn apply_instantiation(
    db: &Database,
    mq: &Metaquery,
    inst: &Instantiation,
) -> Result<Rule, InstError> {
    check_fixed_schemes(db, mq)?;
    let mut vars = mq.vars.clone();
    let mut pattern_idx = 0usize;
    let mut make_atom =
        |scheme: &LiteralScheme, vars: &mut crate::ast::VarPool| -> Result<Atom, InstError> {
            match &scheme.pred {
                Pred::Rel(name) => {
                    let rel = db
                        .rel_id(name)
                        .ok_or_else(|| InstError::UnknownRelation(name.clone()))?;
                    Ok(Atom::vars_atom(rel, &scheme.args))
                }
                Pred::Var(_) => {
                    let map = &inst.maps[pattern_idx];
                    pattern_idx += 1;
                    let terms: Vec<Term> = map
                        .slots
                        .iter()
                        .map(|slot| match slot {
                            Some(i) => Term::Var(scheme.args[*i]),
                            None => Term::Var(vars.fresh()),
                        })
                        .collect();
                    Ok(Atom::new(map.rel, terms))
                }
            }
        };
    let head = make_atom(&mq.head, &mut vars)?;
    let mut body = Vec::with_capacity(mq.body.len());
    for scheme in &mq.body {
        body.push(make_atom(scheme, &mut vars)?);
    }
    let mut neg_body = Vec::with_capacity(mq.neg_body.len());
    for scheme in &mq.neg_body {
        neg_body.push(make_atom(scheme, &mut vars)?);
    }
    Ok(Rule {
        head,
        body,
        neg_body,
        var_names: vars,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_metaquery;
    use mq_relation::ints;

    /// DB with relations p/2, q/2, r/3.
    fn db3() -> Database {
        let mut db = Database::new();
        let p = db.add_relation("p", 2);
        let q = db.add_relation("q", 2);
        let r = db.add_relation("r", 3);
        db.insert(p, ints(&[1, 2]));
        db.insert(q, ints(&[2, 3]));
        db.insert(r, ints(&[1, 2, 3]));
        db
    }

    #[test]
    fn type0_counts() {
        let db = db3();
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        // Each of the 3 patterns independently picks one of the two binary
        // relations: 2^3 = 8.
        assert_eq!(count_instantiations(&db, &mq, InstType::Zero).unwrap(), 8);
    }

    #[test]
    fn type1_counts() {
        let db = db3();
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        // Each pattern: 2 relations × 2 argument orders = 4; total 4^3.
        assert_eq!(count_instantiations(&db, &mq, InstType::One).unwrap(), 64);
    }

    #[test]
    fn type2_counts() {
        let db = db3();
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        // Per pattern: binary rels give 2×2=4 placements; the ternary rel
        // gives 3·2 = 6 ordered placements of 2 args into 3 positions.
        // Total per pattern = 4 + 6 = 10; three patterns → 1000.
        assert_eq!(count_instantiations(&db, &mq, InstType::Two).unwrap(), 1000);
    }

    #[test]
    fn type_hierarchy_zero_subset_one_subset_two() {
        let db = db3();
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        let t0 = enumerate_instantiations(&db, &mq, InstType::Zero).unwrap();
        let t1 = enumerate_instantiations(&db, &mq, InstType::One).unwrap();
        let t2 = enumerate_instantiations(&db, &mq, InstType::Two).unwrap();
        // Compare by rendered rules (slot layouts differ in representation
        // only when arities differ).
        let render = |insts: &[Instantiation]| -> std::collections::HashSet<String> {
            insts
                .iter()
                .map(|i| apply_instantiation(&db, &mq, i).unwrap().render(&db))
                .collect()
        };
        let (r0, r1, r2) = (render(&t0), render(&t1), render(&t2));
        assert!(r0.is_subset(&r1), "type-0 ⊆ type-1");
        assert!(r1.is_subset(&r2), "type-1 ⊆ type-2");
    }

    #[test]
    fn functional_restriction_enforced() {
        let db = db3();
        // P occurs twice: both occurrences must map to the same relation.
        let mq = parse_metaquery("P(X,Y) <- P(Y,Z), Q(Z,W)").unwrap();
        let insts = enumerate_instantiations(&db, &mq, InstType::Zero).unwrap();
        // P: 2 choices shared, Q: 2 choices → 4.
        assert_eq!(insts.len(), 4);
        for inst in &insts {
            assert_eq!(inst.maps[0].rel, inst.maps[1].rel, "P consistent");
        }
    }

    #[test]
    fn type1_different_permutations_same_predvar_allowed() {
        let db = db3();
        let mq = parse_metaquery("P(X,Y) <- P(Y,Z), Q(Z,W)").unwrap();
        let insts = enumerate_instantiations(&db, &mq, InstType::One).unwrap();
        // P: 2 rels, each occurrence independently permuted (2 × 2),
        // Q: 2 rels × 2 perms → 2·2·2 · 4 = 32.
        assert_eq!(insts.len(), 32);
        // Some instantiation uses different argument orders for the two
        // P-occurrences.
        assert!(insts
            .iter()
            .any(|i| i.maps[0].rel == i.maps[1].rel && i.maps[0].slots != i.maps[1].slots));
    }

    #[test]
    fn type0_requires_pure() {
        let db = db3();
        let mut b = crate::ast::MetaqueryBuilder::new();
        let x = b.var("X");
        let y = b.var("Y");
        let p = b.pred_var("P");
        b.head_pattern(p, vec![x, y]);
        b.body_pattern(p, vec![x]);
        let mq = b.build();
        assert_eq!(
            for_each_instantiation(&db, &mq, InstType::Zero, |_| ControlFlow::Continue(()))
                .unwrap_err(),
            InstError::NotPure
        );
        // Type-2 tolerates impurity.
        assert!(count_instantiations(&db, &mq, InstType::Two).is_ok());
    }

    #[test]
    fn type2_pads_with_fresh_vars() {
        let db = db3();
        let mq = parse_metaquery("I(X) <- O(X)").unwrap();
        let insts = enumerate_instantiations(&db, &mq, InstType::Two).unwrap();
        // Find an instantiation mapping I to r/3: 1 arg into 3 positions.
        let with_r = insts
            .iter()
            .map(|i| apply_instantiation(&db, &mq, i).unwrap())
            .find(|r| db.relation(r.head.rel).name() == "r")
            .expect("some instantiation uses r/3");
        assert_eq!(with_r.head.terms.len(), 3);
        // Exactly one term is X; the others are fresh and distinct.
        let x = mq.vars.get("X").unwrap();
        let vars: Vec<VarId> = with_r
            .head
            .terms
            .iter()
            .filter_map(|t| t.as_var())
            .collect();
        assert_eq!(vars.iter().filter(|&&v| v == x).count(), 1);
        let fresh: Vec<VarId> = vars.into_iter().filter(|&v| v != x).collect();
        assert_eq!(fresh.len(), 2);
        assert_ne!(fresh[0], fresh[1]);
    }

    #[test]
    fn repeated_scheme_vars_dedupe_permutations() {
        let db = db3();
        // P(X,X): both permutations give the same atom; only 1 candidate
        // per binary relation under type-1.
        let mq = parse_metaquery("P(X,X) <- P(X,X)").unwrap();
        // head+body share P and the same scheme shape: relation shared.
        assert_eq!(count_instantiations(&db, &mq, InstType::One).unwrap(), 2);
    }

    #[test]
    fn unknown_relation_symbol_errors() {
        let db = db3();
        let mq = parse_metaquery("P(X,Y) <- missing(X,Y)").unwrap();
        assert_eq!(
            count_instantiations(&db, &mq, InstType::Zero).unwrap_err(),
            InstError::UnknownRelation("missing".into())
        );
    }

    #[test]
    fn arity_mismatch_on_fixed_scheme_errors() {
        let db = db3();
        let mq = parse_metaquery("P(X,Y) <- p(X,Y,Z)").unwrap();
        match count_instantiations(&db, &mq, InstType::Zero).unwrap_err() {
            InstError::ArityMismatch { relation, .. } => assert_eq!(relation, "p"),
            e => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn early_stop_reports_true() {
        let db = db3();
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        let stopped =
            for_each_instantiation(&db, &mq, InstType::Zero, |_| ControlFlow::Break(())).unwrap();
        assert!(stopped);
    }
}
