//! The `findRules` algorithm (Figure 4).
//!
//! Answering proceeds in the paper's three phases:
//!
//! 1. **findBodies** — a bottom-up visit of a complete hypertree
//!    decomposition `⟨T, χ, λ⟩` of `body(MQ)`. Visiting vertex `p_ν(i)`
//!    extends the current partial instantiation `σb` with instantiations
//!    `σi` of the not-yet-mapped patterns in `λ(p_ν(i))`, computes
//!    `r[i] := π_χ(J(σi(λ(p_ν(i)))))`, semijoins it with the children's
//!    `r[·]` (the *first half* of a full reducer, interleaved with the
//!    search), and prunes the branch when `r[i]` is empty.
//! 2. At the root, the *second half* of the full reducer reduces every
//!    vertex top-down, `s[j] = r[j] ⋉ s[parent]`, so that
//!    `s[j] = π_χ(b)` for the body join `b`. Nothing is gathered unless
//!    a later step reads its rows: a reduction is gathered only for its
//!    children's reductions, a type-2 padding join, or the support count
//!    of an atom not ranging over exactly χ, and is otherwise a
//!    `semijoin_count` (as is the bottom-up reduction of a root with a
//!    single child it does not cover: that child reads it unreduced,
//!    which shows it the same keys). Since
//!    `|π_vars(A)(s[home])| = |π_vars(A)(b)|`, one count per atom gives
//!    the exact support, which `enoughSupport` tests against `k_sup`.
//! 3. **findHeads** — the body join `b = J(σb(body(MQ)))` is assembled
//!    from the first-half relations `r[j]`, not their reductions: the
//!    prefix a vertex joins into already holds its calibrated parent,
//!    so `prefix ⋈ r[j] = prefix ⋈ s[j]`. Every head instantiation `σh`
//!    that agrees with `σb` is checked with two semijoin counts,
//!    `cvr = |h ⋉ b| / |h|` and `cnf = |b ⋉ h| / |b|`. The heads are the
//!    same atoms for every body, so the first `findHeads` of a search
//!    merges all of them into one [`mq_relation::HeadTable`] (distinct
//!    shared key, sorted by variable → the heads holding it and their
//!    rows with it), shared by every worker. Each body then costs one
//!    head-count op: `b`'s rows stream once against the table behind a
//!    key filter, yielding `|b|` and cover and confidence for every head
//!    at once. Every body is assembled one way: a type-2 atom padded
//!    with variables outside every χ is first joined into its home
//!    vertex's reduction, which the joins then read; then, with no
//!    negated literal, `b` is never built: the op is handed the join of
//!    every vertex but the last and the last vertex relation, and
//!    streams their join row pair by row pair without gathering a
//!    column.
//!
//! The decomposition is computed once per search: by Proposition 4.9,
//! applying any instantiation `σ` to the `λ` labels preserves a
//! width-`c` decomposition, so one decomposition serves every
//! instantiation. It depends on `body(MQ)` alone; preparing it once per
//! metaquery, across searches, is ROADMAP item 4, step 2.
//!
//! ## Architecture
//!
//! The engine is three explicit layers (see `ARCHITECTURE.md`):
//!
//! * **Planner** ([`crate::plan`]) — a pure function from a vertex's χ
//!   and λ-atom statistics to a hash-consed [`crate::plan::PlanOp`] DAG;
//! * **Executor** (`engine::exec`) — interprets plan nodes against
//!   [`Bindings`], memoizing per plan-node id (atom memo, plan cache,
//!   result memo); cover, confidence and `|b|` come from its head-count
//!   op, while the reducer and support counts call the kernels'
//!   `semijoin_count` and `count_distinct` directly;
//! * **Scheduler** ([`super::parallel`]) — splits the search over
//!   instantiation prefixes of [`super::parallel::SPLIT_DEPTH`]
//!   patterns, which scoped worker threads claim off a shared counter,
//!   merging results in enumeration order so answers are
//!   byte-identical to [`find_rules_seq`].
//!
//! This module is the remaining orchestration: the immutable `Setup`
//! (decomposition, candidates, thresholds, enumeration order) and the
//! per-search `Engine` (assignment stacks, node relations, executor)
//! driving the three phases.

use crate::ast::{LiteralScheme, Metaquery, Pred, PredVarId};
use crate::engine::exec::Executor;
use crate::engine::{MqAnswer, MqProblem, Thresholds};
use crate::index::IndexValues;
use crate::instantiate::{
    check_body_size, check_fixed_schemes, pattern_candidates, InstError, InstType, Instantiation,
    PatternMap,
};
use crate::plan::AtomKey;
use mq_cq::hypertree::{hypertree_width_of_sets, Hypertree};
use mq_relation::{Bindings, Database, Frac, HeadScratch, HeadTable, RelId, Term, VarId};
use std::collections::{BTreeSet, HashMap};
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Find all type-`ty` instantiations whose indices clear `thresholds`,
/// using the Figure 4 algorithm with the search run on the parallel
/// scheduler ([`super::parallel`]). Answers match
/// [`crate::engine::naive`] exactly (including the degenerate
/// no-thresholds case) and are returned in sorted order.
pub fn find_rules(
    db: &Database,
    mq: &Metaquery,
    ty: InstType,
    thresholds: Thresholds,
) -> Result<Vec<MqAnswer>, InstError> {
    find_rules_instrumented(db, mq, ty, thresholds, None, None, None, 0)
}

/// [`find_rules`] with its inputs declared — the serving/bench entry
/// point.
///
/// * `memos` — the memo service the search reads and publishes into.
///   The serving layer passes a fresh one per search and reads its hit
///   rates off the instance afterwards; `None` means a fresh service.
/// * `max_wall_ms` — a **wall-clock budget**. The search checks the
///   deadline cooperatively (in the engine's enumeration loop and in the
///   scheduler's task loop) and, once it expires, unwinds and returns
///   [`InstError::DeadlineExceeded`] instead of a partial answer set;
///   `None` runs unbounded.
/// * `profile` — receives the search's scheduler-task and node-eval
///   totals, plus per-plan-node wall time / rows / memo hits when it was
///   built [`mq_obs::SearchProfile::detailed`].
/// * `req_id` (0 = unattributed) — scopes every worker's trace spans to
///   the serving request, so `trace <req-id>` shows scheduler tasks next
///   to the session spans.
///
/// None of these affects answers: every `Ok` is byte-identical to
/// [`find_rules_seq`], because every memo value is a deterministic
/// function of its key and the database snapshot (see the memo-sharing
/// contract in `ARCHITECTURE.md`).
#[allow(clippy::too_many_arguments)]
pub fn find_rules_instrumented(
    db: &Database,
    mq: &Metaquery,
    ty: InstType,
    thresholds: Thresholds,
    memos: Option<Arc<super::memo::SharedMemos>>,
    max_wall_ms: Option<u64>,
    profile: Option<Arc<mq_obs::SearchProfile>>,
    req_id: u64,
) -> Result<Vec<MqAnswer>, InstError> {
    validate(db, mq, ty)?;
    let mut setup = Setup::new(db, mq, ty, thresholds, memos);
    setup.deadline = max_wall_ms.map(SearchDeadline::new);
    setup.profile = profile;
    setup.obs_req = req_id;
    // An already-expired budget (e.g. 0 ms) fails before any work: the
    // engines only read the clock every 64th poll, so a tiny search
    // could otherwise finish under an expired deadline.
    if let Some(dl) = &setup.deadline {
        if dl.check() {
            return Err(InstError::DeadlineExceeded {
                budget_ms: dl.budget_ms,
            });
        }
    }
    let mut out = super::parallel::run(&setup);
    if let Some(dl) = &setup.deadline {
        if dl.is_expired() {
            return Err(InstError::DeadlineExceeded {
                budget_ms: dl.budget_ms,
            });
        }
    }
    crate::engine::sort_answers(&mut out);
    Ok(out)
}

/// Single-threaded `findRules` (the parallel driver's reference). Public
/// so benchmarks and the determinism regression test can compare against
/// [`find_rules`].
pub fn find_rules_seq(
    db: &Database,
    mq: &Metaquery,
    ty: InstType,
    thresholds: Thresholds,
) -> Result<Vec<MqAnswer>, InstError> {
    validate(db, mq, ty)?;
    let setup = Setup::new(db, mq, ty, thresholds, None);
    let mut out = collect_sequential(&setup);
    crate::engine::sort_answers(&mut out);
    Ok(out)
}

/// Run the whole search on the calling thread, collecting every answer.
pub(crate) fn collect_sequential(setup: &Setup) -> Vec<MqAnswer> {
    let mut out = Vec::new();
    {
        let mut engine = Engine::new(setup, |ans: &MqAnswer| {
            out.push(ans.clone());
            ControlFlow::Continue(())
        });
        let _ = engine.find_bodies(0);
    }
    out
}

/// Decide `⟨DB, MQ, I, k, T⟩` with `findRules`, stopping at the first
/// witness.
pub fn decide(db: &Database, mq: &Metaquery, problem: MqProblem) -> Result<bool, InstError> {
    let mut found = false;
    find_rules_with(
        db,
        mq,
        problem.ty,
        Thresholds::single(problem.index, problem.threshold),
        |_| {
            found = true;
            ControlFlow::Break(())
        },
    )?;
    Ok(found)
}

/// Streaming variant: invoke `f` on each answer; `Break` stops the search.
/// Returns `true` if stopped early. Always sequential (streaming order is
/// the enumeration order).
pub fn find_rules_with(
    db: &Database,
    mq: &Metaquery,
    ty: InstType,
    thresholds: Thresholds,
    f: impl FnMut(&MqAnswer) -> ControlFlow<()>,
) -> Result<bool, InstError> {
    validate(db, mq, ty)?;
    let setup = Setup::new(db, mq, ty, thresholds, None);
    let mut engine = Engine::new(&setup, f);
    let stopped = engine.find_bodies(0).is_break();
    Ok(stopped)
}

fn validate(db: &Database, mq: &Metaquery, ty: InstType) -> Result<(), InstError> {
    if ty != InstType::Two && !mq.is_pure() {
        return Err(InstError::NotPure);
    }
    if !mq.is_safe() {
        return Err(InstError::UnsafeNegation);
    }
    check_fixed_schemes(db, mq)?;
    check_body_size(mq)?;
    assert!(!mq.body.is_empty(), "metaquery body must be non-empty");
    Ok(())
}

/// The diagnostic facts `findRules` precomputes; exposed so benchmarks can
/// report the decomposition width `c` of Theorem 4.12.
#[derive(Clone, Debug)]
pub struct BodyDecomposition {
    /// The hypertree width of `body(MQ)`.
    pub width: usize,
    /// Number of decomposition vertices.
    pub vertices: usize,
}

/// Compute `body(MQ)`'s hypertree width and decomposition size.
///
/// # Panics
///
/// If the body is empty, or has more literals or distinct variables than
/// [`check_body_size`] admits.
pub fn body_decomposition(mq: &Metaquery) -> BodyDecomposition {
    let (width, ht) = body_hypertree(mq);
    BodyDecomposition {
        width,
        vertices: ht.len(),
    }
}

/// `body(MQ)`'s least-width hypertree decomposition over the body literal
/// schemes' ordinary variables, with its width.
fn body_hypertree(mq: &Metaquery) -> (usize, Hypertree) {
    let edges: Vec<BTreeSet<VarId>> = mq.body.iter().map(|l| l.var_set()).collect();
    hypertree_width_of_sets(&edges).expect("non-empty body")
}

/// A cooperative wall-clock deadline shared by every worker of one
/// search. Workers poll it ([`SearchDeadline::check`]) at enumeration
/// and task boundaries; the first poll past the deadline latches
/// `expired`, after which every poll is a cheap atomic load and the
/// whole search unwinds without further clock reads. Latching matters
/// for determinism of the *error*: once any worker observes expiry the
/// search is doomed, so [`find_rules_instrumented`] reports
/// [`InstError::DeadlineExceeded`] rather than whatever partial answers
/// happened to be merged.
pub(crate) struct SearchDeadline {
    at: Instant,
    /// The configured budget, echoed back in the error.
    pub(crate) budget_ms: u64,
    expired: AtomicBool,
}

impl SearchDeadline {
    pub(crate) fn new(budget_ms: u64) -> Self {
        SearchDeadline {
            at: Instant::now() + Duration::from_millis(budget_ms),
            budget_ms,
            expired: AtomicBool::new(false),
        }
    }

    /// Read the clock (unless already latched): `true` once the budget
    /// has run out.
    pub(crate) fn check(&self) -> bool {
        if self.expired.load(Ordering::Relaxed) {
            return true;
        }
        if Instant::now() >= self.at {
            self.expired.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Whether any poll has observed expiry (no clock read).
    pub(crate) fn is_expired(&self) -> bool {
        self.expired.load(Ordering::Relaxed)
    }
}

/// Everything `findRules` computes **once** per (database, metaquery,
/// type, thresholds) — immutable and shared by every search engine,
/// including parallel workers.
pub(crate) struct Setup<'a> {
    pub(crate) db: &'a Database,
    mq: &'a Metaquery,
    thresholds: Thresholds,
    /// `true` when a rule with all-zero indices would be accepted; in that
    /// case empty-join pruning must be disabled to match the naive engine.
    zero_ok: bool,

    ht: Hypertree,
    /// Bottom-up visit: postorder node list (the paper's ν).
    post: Vec<usize>,
    /// node -> its postorder position.
    pos_of: Vec<usize>,
    /// Per node: its χ label as a sorted variable list (what node joins
    /// project onto).
    chi_sorted: Vec<Vec<VarId>>,
    /// Whether the root has a single child that it does not cover. Such
    /// a root only counts its bottom-up semijoin: its child sees the
    /// same keys in the unreduced root, and the body joins filter the
    /// root's rows anyway. A covered child would be skipped by the body
    /// joins, which relies on its parent having been reduced by it.
    counted_root: bool,

    /// Global pattern count and scheme info. Pattern index 0 is the head
    /// pattern when the head is a pattern; body patterns follow in order.
    head_is_pattern: bool,
    /// body scheme index -> global pattern index (None if fixed atom).
    body_pattern: Vec<Option<usize>>,
    /// negated body scheme index -> global pattern index (None if fixed).
    neg_pattern: Vec<Option<usize>>,
    /// Per global pattern: candidate relation -> slot maps.
    pub(crate) candidates: Vec<HashMap<RelId, Vec<Vec<Option<usize>>>>>,
    /// Per global pattern: its candidate relations, sorted (the
    /// enumeration order).
    cand_rels: Vec<Vec<RelId>>,
    /// Per global pattern: pre-allocated fresh padding variables, one per
    /// relation position (type-2); index j pads position j.
    fresh_slots: Vec<Vec<VarId>>,
    /// Per global pattern: its predicate variable.
    pub(crate) pattern_pv: Vec<PredVarId>,
    /// Body patterns in the order `find_bodies` first assigns them —
    /// the scheduler's split axis.
    pub(crate) enum_order: Vec<usize>,
    /// Every head instantiation, in `findHeads` enumeration order:
    /// relations sorted, then slot maps in candidate order (the fixed
    /// head is one entry).
    heads: Vec<HeadCandidate>,
    /// Every variable a body join can bind: the body schemes' arguments
    /// and the body patterns' padding. A head's key is its variables
    /// found here.
    body_vars: Vec<VarId>,
    /// All heads merged into one count table, built by the first
    /// `findHeads` of the search and shared by every worker.
    head_table: OnceLock<HeadTable>,
    /// The unit relation: a body built whole is counted as `b ⋈ unit`.
    unit: Bindings,
    /// The cross-worker shared memo service (atoms, plans, node
    /// results), created once per search — or supplied by the serving
    /// layer — and handed to every worker's executor.
    pub(crate) shared_memos: Arc<super::memo::SharedMemos>,
    /// Optional wall-clock budget, polled cooperatively by every engine
    /// and by the scheduler's task loop. `None` (every entry point but
    /// [`find_rules_instrumented`]) is a single branch on the hot path.
    pub(crate) deadline: Option<SearchDeadline>,
    /// Optional per-search profile sink (`mq-obs`): scheduler tasks and
    /// executor node evals always, per-plan-node detail when the profile
    /// is detailed. `None` everywhere but the serving/bench entry point
    /// ([`find_rules_instrumented`]).
    pub(crate) profile: Option<Arc<mq_obs::SearchProfile>>,
    /// Request id the search's trace spans are attributed to (0 = none):
    /// scheduler workers enter this scope so spans they record land on
    /// the same request as the serving thread's.
    pub(crate) obs_req: u64,
}

impl<'a> Setup<'a> {
    /// The search state for `mq` over `db`. `memos` is an externally
    /// supplied memo service (the serving layer's); `None` creates a
    /// fresh one.
    pub(crate) fn new(
        db: &'a Database,
        mq: &'a Metaquery,
        ty: InstType,
        thresholds: Thresholds,
        memos: Option<Arc<super::memo::SharedMemos>>,
    ) -> Self {
        let (_, mut ht) = body_hypertree(mq);
        ht.complete();
        let post = ht.postorder();
        let mut pos_of = vec![0usize; ht.len()];
        for (i, &n) in post.iter().enumerate() {
            pos_of[n] = i;
        }
        let chi_sorted: Vec<Vec<VarId>> = ht
            .nodes
            .iter()
            .map(|n| n.chi.iter().copied().collect())
            .collect();
        let root = post[post.len() - 1];
        let counted_root = match ht.children[root][..] {
            [child] => !ht.nodes[child].chi.is_subset(&ht.nodes[root].chi),
            _ => false,
        };

        // Global pattern bookkeeping (head first, as in rep(MQ)).
        let head_is_pattern = mq.head.is_pattern();
        let mut schemes = Vec::new();
        if head_is_pattern {
            schemes.push(&mq.head);
        }
        let mut body_pattern = Vec::with_capacity(mq.body.len());
        for l in &mq.body {
            if l.is_pattern() {
                body_pattern.push(Some(schemes.len()));
                schemes.push(l);
            } else {
                body_pattern.push(None);
            }
        }
        let mut neg_pattern = Vec::with_capacity(mq.neg_body.len());
        for l in &mq.neg_body {
            if l.is_pattern() {
                neg_pattern.push(Some(schemes.len()));
                schemes.push(l);
            } else {
                neg_pattern.push(None);
            }
        }
        let candidates: Vec<_> = schemes
            .iter()
            .map(|s| pattern_candidates(db, s, ty))
            .collect();
        let cand_rels: Vec<Vec<RelId>> = candidates
            .iter()
            .map(|c| {
                let mut rels: Vec<RelId> = c.keys().copied().collect();
                rels.sort();
                rels
            })
            .collect();
        let pattern_pv: Vec<PredVarId> = schemes
            .iter()
            .map(|s| match s.pred {
                Pred::Var(p) => p,
                Pred::Rel(_) => unreachable!("patterns have predicate variables"),
            })
            .collect();
        // Fresh padding variables: one per pattern per possible position.
        let mut pool = mq.vars.clone();
        let max_arity = db.max_arity();
        let fresh_slots: Vec<Vec<VarId>> = schemes
            .iter()
            .map(|_| (0..max_arity).map(|_| pool.fresh()).collect())
            .collect();

        let heads: Vec<HeadCandidate> = if head_is_pattern {
            let args = &mq.head.args;
            cand_rels[0]
                .iter()
                .flat_map(|&rel| candidates[0][&rel].iter().map(move |slots| (rel, slots)))
                .map(|(rel, slots)| HeadCandidate {
                    rel,
                    terms: slots
                        .iter()
                        .enumerate()
                        .map(|(j, slot)| match slot {
                            Some(i) => Term::Var(args[*i]),
                            None => Term::Var(fresh_slots[0][j]),
                        })
                        .collect(),
                    slots: slots.clone(),
                })
                .collect()
        } else {
            let Pred::Rel(name) = &mq.head.pred else {
                unreachable!("a fixed head names its relation")
            };
            vec![HeadCandidate {
                rel: db.rel_id(name).expect("checked by `validate`"),
                terms: mq.head.args.iter().map(|&v| Term::Var(v)).collect(),
                slots: (0..mq.head.args.len()).map(Some).collect(),
            }]
        };
        let mut body_vars: Vec<VarId> = mq
            .body
            .iter()
            .flat_map(|l| l.args.iter().copied())
            .collect();
        for pidx in body_pattern.iter().flatten() {
            body_vars.extend_from_slice(&fresh_slots[*pidx]);
        }
        body_vars.sort_unstable();
        body_vars.dedup();

        // The order `find_bodies` first assigns body patterns: postorder
        // vertices, each vertex's λ patterns in label order, first
        // occurrence only. The scheduler splits tasks along a prefix of
        // this order, so it must mirror `enum_node` exactly.
        let mut seen = vec![false; schemes.len()];
        let mut enum_order = Vec::new();
        for &node in &post {
            for &bi in &ht.nodes[node].lambda {
                if let Some(pidx) = body_pattern[bi] {
                    if !seen[pidx] {
                        seen[pidx] = true;
                        enum_order.push(pidx);
                    }
                }
            }
        }

        let zero = IndexValues {
            sup: Frac::ZERO,
            cnf: Frac::ZERO,
            cvr: Frac::ZERO,
        };
        Setup {
            db,
            mq,
            thresholds,
            zero_ok: thresholds.accepts(&zero),
            ht,
            post,
            pos_of,
            chi_sorted,
            counted_root,
            head_is_pattern,
            body_pattern,
            neg_pattern,
            candidates,
            cand_rels,
            fresh_slots,
            pattern_pv,
            enum_order,
            heads,
            body_vars,
            head_table: OnceLock::new(),
            unit: Bindings::unit(),
            shared_memos: memos.unwrap_or_default(),
            deadline: None,
            profile: None,
            obs_req: 0,
        }
    }
}

/// One pre-pinned pattern assignment of a scheduler task: pattern index,
/// relation, slot map.
pub(crate) type PrefixAssign = (usize, RelId, Vec<Option<usize>>);

/// One head instantiation: relation, slot map, instantiated terms.
struct HeadCandidate {
    rel: RelId,
    slots: Vec<Option<usize>>,
    terms: Vec<Term>,
}

impl Setup<'_> {
    /// The relations pattern `pidx` may take, in enumeration order: all
    /// its candidates, or just `locked` (if a candidate) when another
    /// pattern already pinned its predicate variable.
    fn rels(&self, pidx: usize, locked: Option<RelId>) -> &[RelId] {
        let rels = &self.cand_rels[pidx];
        match locked.map(|r| rels.binary_search(&r)) {
            None => rels,
            Some(Ok(i)) => &rels[i..=i],
            Some(Err(_)) => &[],
        }
    }

    /// Whether the vertex at postorder position `j` reduces its children
    /// top-down with its own rows, so its reduction `s[j]` is gathered.
    /// The counted root does not: its only child reads it unreduced.
    fn reduces_children(&self, j: usize) -> bool {
        if self.counted_root && j + 1 == self.post.len() {
            return false;
        }
        !self.ht.children[self.post[j]].is_empty()
    }

    /// Whether `atom` ranges over exactly the χ of the vertex at postorder
    /// position `j`; then `|atom ⋉ s[j]| = |s[j]|`.
    fn spans_chi(&self, atom: &Bindings, j: usize) -> bool {
        let chi = &self.chi_sorted[self.post[j]];
        atom.vars().len() == chi.len() && atom.vars().iter().all(|v| chi.binary_search(v).is_ok())
    }

    /// The heads `findHeads` checks when the head's predicate variable
    /// is pinned to `locked` (all of them when `None`): a run of
    /// [`Setup::heads`], which is sorted by relation.
    fn head_range(&self, locked: Option<RelId>) -> Range<usize> {
        match locked {
            None => 0..self.heads.len(),
            Some(r) => {
                self.heads.partition_point(|h| h.rel < r)
                    ..self.heads.partition_point(|h| h.rel <= r)
            }
        }
    }

    /// The deterministic partition of the search space used by the
    /// scheduler: every combination of candidate assignments for the
    /// first `depth` patterns in [`Setup::enum_order`], generated in
    /// exactly the order `enum_node` would enumerate them (including
    /// predicate-variable locking between patterns sharing a `pv`).
    /// Empty when the body binds no pattern.
    pub(crate) fn prefix_tasks(&self, depth: usize) -> Vec<Vec<PrefixAssign>> {
        let pats: Vec<usize> = self.enum_order.iter().copied().take(depth.max(1)).collect();
        let mut tasks = Vec::new();
        if pats.is_empty() {
            return tasks;
        }
        let mut locked = PvLocks::new();
        let mut cur: Vec<PrefixAssign> = Vec::with_capacity(pats.len());
        self.gen_prefix(&pats, 0, &mut locked, &mut cur, &mut tasks);
        tasks
    }

    fn gen_prefix(
        &self,
        pats: &[usize],
        k: usize,
        locked: &mut PvLocks,
        cur: &mut Vec<PrefixAssign>,
        out: &mut Vec<Vec<PrefixAssign>>,
    ) {
        if k == pats.len() {
            out.push(cur.clone());
            return;
        }
        let pidx = pats[k];
        let pv = self.pattern_pv[pidx];
        for &rel in self.rels(pidx, locked.get(&pv).map(|&(r, _)| r)) {
            pin(locked, pv, rel);
            for slots in &self.candidates[pidx][&rel] {
                cur.push((pidx, rel, slots.clone()));
                self.gen_prefix(pats, k + 1, locked, cur, out);
                cur.pop();
            }
            unpin(locked, pv);
        }
    }
}

/// Predicate variable -> (relation, how many patterns pinned it).
type PvLocks = HashMap<PredVarId, (RelId, usize)>;

/// Lock `pv` to `rel` for one more pattern (the caller has checked that
/// `rel` agrees with any existing lock).
fn pin(locks: &mut PvLocks, pv: PredVarId, rel: RelId) {
    locks.entry(pv).and_modify(|e| e.1 += 1).or_insert((rel, 1));
}

/// Undo one [`pin`] of `pv`, releasing the lock with the last pattern.
fn unpin(locks: &mut PvLocks, pv: PredVarId) {
    if let Some(e) = locks.get_mut(&pv) {
        if e.1 == 1 {
            locks.remove(&pv);
        } else {
            e.1 -= 1;
        }
    }
}

/// The exact support `max_i |π_vars(A_i)(b)| / |A_i|` of a body join
/// `b` built whole, over the non-empty body atoms `A_i`. Every atom's
/// variables are among `b`'s, so when `b` has no more columns than an
/// atom, in whatever order, the count is its length (bindings hold no
/// duplicate rows).
fn support(body_atoms: &[Arc<Bindings>], b: &Bindings) -> Frac {
    let mut sup = Frac::ZERO;
    for ra in body_atoms.iter().filter(|ra| !ra.is_empty()) {
        let num = if b.vars().len() == ra.vars().len() {
            b.len()
        } else {
            b.count_distinct(ra.vars())
        };
        sup = sup.max(Frac::ratio_or_zero(num as u64, ra.len() as u64));
    }
    sup
}

/// A vertex's first-half relation `r[i]` and its length. `rel` is
/// `π_χ(J(σi(λ)))` semijoined with every child's `r` — except at the
/// counted root, whose `rel` stays unreduced and whose `len` counts the
/// semijoin with its only child.
struct FirstHalf {
    rel: Arc<Bindings>,
    len: usize,
}

/// Per-search mutable state: assignment stacks, node relations, and the
/// plan executor with its memos. Cheap to construct — one per worker,
/// reused across every task the worker claims (so memo slices accumulate).
pub(crate) struct Engine<'a, 'b, F> {
    setup: &'b Setup<'a>,
    exec: Executor<'a>,
    f: F,
    /// Search state: per-pattern assignment.
    assign: Vec<Option<PatternMap>>,
    /// Predicate variable -> (relation, how many patterns pinned it).
    pv_rel: PvLocks,
    /// Per postorder position: the first-half relation `r[i]`.
    r: Vec<Option<FirstHalf>>,
    /// The head-count op's buffers, reused across bodies; holds the
    /// last body's counts per head.
    head_scratch: HeadScratch,
    /// Deadline poll counter: the clock is read every 64th poll (and
    /// never when the setup has no deadline).
    ticks: u32,
}

impl<'a, 'b, F: FnMut(&MqAnswer) -> ControlFlow<()>> Engine<'a, 'b, F> {
    pub(crate) fn new(setup: &'b Setup<'a>, f: F) -> Self {
        let n_patterns = setup.candidates.len();
        let n_pos = setup.post.len();
        Engine {
            setup,
            exec: Executor::new(
                setup.db,
                Arc::clone(&setup.shared_memos),
                setup.profile.clone(),
            ),
            f,
            assign: vec![None; n_patterns],
            pv_rel: HashMap::new(),
            r: (0..n_pos).map(|_| None).collect(),
            head_scratch: HeadScratch::new(),
            ticks: 0,
        }
    }

    /// Cooperative deadline poll. A counter keeps the common case to one
    /// branch + one increment; every 64th poll reads the clock. Once the
    /// deadline latches, every poll short-circuits `true` so the
    /// recursion unwinds immediately.
    fn over_deadline(&mut self) -> bool {
        let Some(dl) = &self.setup.deadline else {
            return false;
        };
        if dl.is_expired() {
            return true;
        }
        self.ticks = self.ticks.wrapping_add(1);
        self.ticks.is_multiple_of(64) && dl.check()
    }

    /// Pin pattern `pidx` to `(rel, slots)` before the search starts (the
    /// scheduler's partition points). Mirrors one iteration of the
    /// `enum_node` candidate loop, including the shared-`pv` lock count.
    fn preassign(&mut self, pidx: usize, rel: RelId, slots: Vec<Option<usize>>) {
        pin(&mut self.pv_rel, self.setup.pattern_pv[pidx], rel);
        self.assign[pidx] = Some(PatternMap { rel, slots });
    }

    /// Undo a [`Engine::preassign`].
    fn unassign(&mut self, pidx: usize) {
        self.assign[pidx] = None;
        unpin(&mut self.pv_rel, self.setup.pattern_pv[pidx]);
    }

    /// Run one scheduler task: pin the prefix, search the remainder,
    /// unpin. The executor's memos survive across tasks.
    pub(crate) fn run_prefix_task(&mut self, task: &[PrefixAssign]) {
        for (pidx, rel, slots) in task {
            self.preassign(*pidx, *rel, slots.clone());
        }
        let _ = self.find_bodies(0);
        for (pidx, _, _) in task {
            self.unassign(*pidx);
        }
    }

    fn eval_atom(&mut self, rel: RelId, terms: Vec<Term>) -> Arc<Bindings> {
        self.exec.eval_atom((rel, terms))
    }

    /// The instantiated atom of `scheme` (a body or negated literal whose
    /// pattern index is `pattern`, `None` when fixed) under the current
    /// (partial) assignment. Only called when the scheme is fixed or
    /// assigned.
    fn atom_terms(&self, scheme: &LiteralScheme, pattern: Option<usize>) -> AtomKey {
        let setup = self.setup;
        match pattern {
            None => {
                let name = match &scheme.pred {
                    Pred::Rel(n) => n,
                    Pred::Var(_) => unreachable!(),
                };
                let rel = setup.db.rel_id(name).expect("checked in setup");
                (rel, scheme.args.iter().map(|&v| Term::Var(v)).collect())
            }
            Some(pidx) => {
                let map = self.assign[pidx].as_ref().expect("assigned");
                let terms = map
                    .slots
                    .iter()
                    .enumerate()
                    .map(|(j, slot)| match slot {
                        Some(i) => Term::Var(scheme.args[*i]),
                        None => Term::Var(setup.fresh_slots[pidx][j]),
                    })
                    .collect();
                (map.rel, terms)
            }
        }
    }

    fn eval_body_atom(&mut self, bi: usize) -> Arc<Bindings> {
        let setup = self.setup;
        let (rel, terms) = self.atom_terms(&setup.mq.body[bi], setup.body_pattern[bi]);
        self.eval_atom(rel, terms)
    }

    /// `π_χ(J(σi(λ(p_ν(i)))))` for vertex `node`: collect the λ atoms'
    /// instantiated keys and hand them to the executor, which plans
    /// (memoized by `(χ, atoms)`) and executes (memoized by plan-node id).
    fn eval_node_join(&mut self, node: usize, lambda: &[usize]) -> Arc<Bindings> {
        let setup = self.setup;
        let keys: Vec<AtomKey> = lambda
            .iter()
            .map(|&bi| self.atom_terms(&setup.mq.body[bi], setup.body_pattern[bi]))
            .collect();
        self.exec.node_join(&setup.chi_sorted[node], keys)
    }

    /// The paper's `findBodies(i, σb)`.
    pub(crate) fn find_bodies(&mut self, i: usize) -> ControlFlow<()> {
        if self.over_deadline() {
            return ControlFlow::Break(());
        }
        let setup = self.setup;
        if i == setup.post.len() {
            return self.second_half_and_heads();
        }
        let node = setup.post[i];
        // Patterns of λ(p_ν(i)) not yet instantiated.
        let lambda = &setup.ht.nodes[node].lambda;
        let to_assign: Vec<usize> = lambda
            .iter()
            .filter_map(|&bi| setup.body_pattern[bi])
            .filter(|&pidx| self.assign[pidx].is_none())
            .collect();
        self.enum_node(i, node, lambda, &to_assign, 0)
    }

    /// Enumerate assignments for the node's unassigned patterns, then
    /// compute `r[i]` and recurse.
    fn enum_node(
        &mut self,
        i: usize,
        node: usize,
        lambda: &[usize],
        to_assign: &[usize],
        depth: usize,
    ) -> ControlFlow<()> {
        if depth == to_assign.len() {
            // All λ patterns mapped: r[i] := π_χ(J(σi(λ(p_ν(i))))),
            // planned and executed by the executor, memoized so sibling
            // instantiations that only differ elsewhere share it.
            let projected = self.eval_node_join(node, lambda);
            let setup = self.setup;
            let children = &setup.ht.children[node];
            let child_r = |child: &usize| {
                let r = self.r[setup.pos_of[*child]].as_ref();
                &*r.expect("children visited first").rel
            };
            let half = if children.is_empty() {
                FirstHalf {
                    len: projected.len(),
                    rel: projected,
                }
            } else if setup.counted_root && i + 1 == setup.post.len() {
                FirstHalf {
                    len: projected.semijoin_count(child_r(&children[0])),
                    rel: projected,
                }
            } else {
                // One fused sweep over all children: same probe count as
                // folded binary semijoins, but survivors materialize once.
                let child_rs: Vec<&Bindings> = children.iter().map(child_r).collect();
                let rel = projected.semijoin_all(&child_rs);
                FirstHalf {
                    len: rel.len(),
                    rel: Arc::new(rel),
                }
            };
            if half.len == 0 && !setup.zero_ok {
                return ControlFlow::Continue(()); // prune this branch
            }
            self.r[i] = Some(half);
            let flow = self.find_bodies(i + 1);
            self.r[i] = None;
            return flow;
        }

        let setup = self.setup;
        let pidx = to_assign[depth];
        let pv = setup.pattern_pv[pidx];
        let locked = self.pv_rel.get(&pv).map(|&(r, _)| r);
        for &rel in setup.rels(pidx, locked) {
            pin(&mut self.pv_rel, pv, rel);
            for slots in &setup.candidates[pidx][&rel] {
                self.assign[pidx] = Some(PatternMap {
                    rel,
                    slots: slots.clone(),
                });
                let flow = self.enum_node(i, node, lambda, to_assign, depth + 1);
                self.assign[pidx] = None;
                if flow.is_break() {
                    unpin(&mut self.pv_rel, pv);
                    return ControlFlow::Break(());
                }
            }
            unpin(&mut self.pv_rel, pv);
        }
        ControlFlow::Continue(())
    }

    /// Second half of the full reducer, `enoughSupport`, and `findHeads`.
    fn second_half_and_heads(&mut self) -> ControlFlow<()> {
        let setup = self.setup;
        let n = setup.post.len();
        let body_atoms: Vec<Arc<Bindings>> = (0..setup.mq.body.len())
            .map(|bi| self.eval_body_atom(bi))
            .collect();
        let r: Vec<&FirstHalf> = self
            .r
            .iter()
            .map(|h| h.as_ref().expect("all nodes computed"))
            .collect();
        let home = |bi: usize| setup.pos_of[setup.ht.atom_home[bi]];

        // s[j] := r[j] ⋉ s[parent], top-down (postorder positions descend
        // root-first). Its rows are gathered only when a later step reads
        // them: its children's reductions, a type-2 padding join, or an
        // atom over other variables than χ counted against it. Every
        // other s[j] is only counted.
        let mut gather: Vec<bool> = (0..n).map(|j| setup.reduces_children(j)).collect();
        for (bi, ra) in body_atoms.iter().enumerate() {
            if !setup.spans_chi(ra, home(bi)) {
                gather[home(bi)] = true;
            }
        }
        let mut s: Vec<Option<Arc<Bindings>>> = vec![None; n];
        let mut s_len = vec![0usize; n];
        let root = &r[n - 1];
        s_len[n - 1] = root.len;
        if gather[n - 1] {
            s[n - 1] = Some(if setup.counted_root {
                let child = setup.pos_of[setup.ht.children[setup.post[n - 1]][0]];
                Arc::new(root.rel.semijoin_all(&[&*r[child].rel]))
            } else {
                Arc::clone(&root.rel)
            });
        }
        for j in (0..n.saturating_sub(1)).rev() {
            let node = setup.post[j];
            let parent = setup.ht.parent[node].expect("non-root has parent");
            let ppos = setup.pos_of[parent];
            // A parent that is not gathered is the counted root, which
            // its only child may read unreduced.
            let parent_rows = s[ppos].as_deref().unwrap_or(&r[ppos].rel);
            // Index r[j] — its cache is long-lived: the executor's memoized
            // value, or for a plain atom the relation's own — and probe
            // the parent.
            if gather[j] {
                let s_j = r[j].rel.semijoin_indexed(parent_rows);
                s_len[j] = s_j.len();
                s[j] = Some(Arc::new(s_j));
            } else {
                s_len[j] = r[j].rel.semijoin_count(parent_rows);
            }
        }

        // The body joins read the first-half relations r[j]: the prefix
        // a vertex joins into already holds its calibrated parent, so
        // `prefix ⋈ r[j] = prefix ⋈ s[j]`.
        //
        // Type-2 instantiations can pad an atom with fresh variables that
        // occur in that atom alone and in no χ. Join each such atom into
        // its (gathered) home: `π_{χ ∪ pad}(b) = s[home] ⋈ ra`, because
        // the padding extends a row of `b` independently of everything
        // else, and the joins read the padded relation. Index the stable
        // atom side (cached across bodies by the executor's atom memo),
        // probe the small reduced side.
        let mut rels: Vec<Arc<Bindings>> = r.iter().map(|h| Arc::clone(&h.rel)).collect();
        for (bi, ra) in body_atoms.iter().enumerate() {
            let j = home(bi);
            let Some(s_home) = &s[j] else {
                continue; // every atom homed here spans χ
            };
            if ra.vars().iter().any(|v| s_home.position(*v).is_none()) {
                let padded = Arc::new(s_home.join(&ra.semijoin_indexed(s_home)));
                rels[j] = Arc::clone(&padded);
                s[j] = Some(padded);
            }
        }

        // enoughSupport, exact: every s[home] is now `π(b)` onto its
        // variables, which include the atom's, so one count per atom,
        // `|π_vars(A)(s[home])| = |π_vars(A)(b)|`, gives the support. An
        // atom ranging over exactly χ counts |s[home]| itself (before
        // any padding).
        let mut sup = Frac::ZERO;
        for (bi, ra) in body_atoms.iter().enumerate() {
            let j = home(bi);
            let count = match &s[j] {
                Some(s_home) if !setup.spans_chi(ra, j) => s_home.count_distinct(ra.vars()),
                _ => s_len[j],
            };
            sup = sup.max(Frac::ratio_or_zero(count as u64, ra.len() as u64));
        }
        if let Some(ksup) = setup.thresholds.sup {
            if sup <= ksup {
                return ControlFlow::Continue(());
            }
        }

        // b := J(σb(body(MQ))), joined along the decomposition: every
        // atom's constraint is inside its home's relation, the
        // χ-connectedness condition keeps every join keyed when parents
        // join before children, and a vertex whose variables are already
        // bound adds nothing — its parent's r was reduced by its r — and
        // is skipped outright. With no negated literal to filter `b`, its
        // last join is never built: every vertex but the last uncovered
        // one joins into a prefix, and `findHeads` streams
        // `prefix ⋈ rels[last]` against the head table, which also yields
        // `|b|` (a body with negated literals joins the last vertex too,
        // then filters).
        let mut prefix: Bindings = (*rels[n - 1]).clone();
        let mut last: Option<usize> = None;
        for j in (0..n.saturating_sub(1)).rev() {
            let bound = |v: &VarId| {
                prefix.position(*v).is_some()
                    || last.is_some_and(|l| rels[l].position(*v).is_some())
            };
            if rels[j].vars().iter().all(bound) {
                continue;
            }
            if let Some(l) = last.replace(j) {
                prefix = prefix.join(&rels[l]);
                if prefix.is_empty() && !setup.zero_ok {
                    return ControlFlow::Continue(());
                }
            }
        }
        let last = last.map(|l| Arc::clone(&rels[l]));
        if setup.mq.neg_body.is_empty() {
            let right = last.as_deref().unwrap_or(&setup.unit);
            return self.find_heads(&prefix, right, sup);
        }
        let b = match &last {
            Some(l) => prefix.join(l),
            None => prefix,
        };
        if b.is_empty() && !setup.zero_ok {
            return ControlFlow::Continue(());
        }
        self.enum_neg(0, b, &body_atoms)
    }

    /// Assign negated patterns (agreeing with σb) and apply their
    /// antijoins to the body join, then compute the exact support and
    /// proceed to `findHeads`. Negated atoms only ever shrink the body
    /// join, so the earlier `enoughSupport` prune (an upper bound) stays
    /// sound.
    fn enum_neg(
        &mut self,
        ni: usize,
        b: Bindings,
        body_atoms: &[Arc<Bindings>],
    ) -> ControlFlow<()> {
        let setup = self.setup;
        if ni == setup.mq.neg_body.len() {
            // Exact support values for reporting, on the filtered join.
            let sup = support(body_atoms, &b);
            return self.find_heads(&b, &setup.unit, sup);
        }
        let Some(pidx) = setup.neg_pattern[ni].filter(|&pidx| self.assign[pidx].is_none()) else {
            // Fixed atom or already-assigned pattern: filter and go on.
            return self.filter_neg(ni, &b, body_atoms);
        };
        let pv = setup.pattern_pv[pidx];
        let locked = self.pv_rel.get(&pv).map(|&(r, _)| r);
        for &rel in setup.rels(pidx, locked) {
            pin(&mut self.pv_rel, pv, rel);
            for slots in &setup.candidates[pidx][&rel] {
                self.assign[pidx] = Some(PatternMap {
                    rel,
                    slots: slots.clone(),
                });
                let flow = self.filter_neg(ni, &b, body_atoms);
                self.assign[pidx] = None;
                if flow.is_break() {
                    unpin(&mut self.pv_rel, pv);
                    return ControlFlow::Break(());
                }
            }
            unpin(&mut self.pv_rel, pv);
        }
        ControlFlow::Continue(())
    }

    /// Antijoin negated literal `ni` (fixed or assigned) out of `b`, then
    /// go on with the next negated literal unless the filtered join is
    /// empty and empty joins are pruned.
    fn filter_neg(
        &mut self,
        ni: usize,
        b: &Bindings,
        body_atoms: &[Arc<Bindings>],
    ) -> ControlFlow<()> {
        let setup = self.setup;
        let (rel, terms) = self.atom_terms(&setup.mq.neg_body[ni], setup.neg_pattern[ni]);
        let filtered = b.antijoin(&self.eval_atom(rel, terms));
        if filtered.is_empty() && !setup.zero_ok {
            return ControlFlow::Continue(());
        }
        self.enum_neg(ni + 1, filtered, body_atoms)
    }

    /// The paper's `findHeads(σb)` for the body `b = left ⋈ right` with
    /// exact support `sup`: unless `sup` fails `k_sup`, check every head
    /// instantiation agreeing with the body instantiation against `b`,
    /// in enumeration order. One head-count op streams `left ⋈ right`
    /// once against the search's head table (built by the first call,
    /// shared by every worker) without building `b`, and yields `|b|`
    /// plus cover and confidence for every head at once.
    fn find_heads(&mut self, left: &Bindings, right: &Bindings, sup: Frac) -> ControlFlow<()> {
        let setup = self.setup;
        if let Some(ksup) = setup.thresholds.sup {
            if sup <= ksup {
                return ControlFlow::Continue(());
            }
        }
        let locked = if setup.head_is_pattern {
            self.pv_rel.get(&setup.pattern_pv[0]).map(|&(r, _)| r)
        } else {
            None
        };
        let heads = setup.head_range(locked);
        if heads.is_empty() {
            return ControlFlow::Continue(());
        }
        let table = setup.head_table.get_or_init(|| {
            let keys = setup.heads.iter().map(|h| (h.rel, h.terms.clone()));
            self.exec.build_head_table(keys, &setup.body_vars)
        });
        let b_len = self
            .exec
            .exec_head_counts(table, left, right, &mut self.head_scratch);
        if b_len == 0 && !setup.zero_ok {
            return ControlFlow::Continue(());
        }
        for i in heads {
            if self.over_deadline() {
                return ControlFlow::Break(());
            }
            let counts = self.head_scratch.counts()[i];
            self.check_head(
                b_len,
                sup,
                i,
                table.head_len(i),
                counts.head_hits,
                counts.body_hits,
            )?;
        }
        ControlFlow::Continue(())
    }

    /// Apply the thresholds to head `i` and report it when it passes.
    /// `cvr = |h ⋉ b| / |h|` from `h_hits`; `cnf = |b ⋉ h| / |b|` from
    /// `b_hits` and `b_len` (equivalently `b ⋉ h'`: every h-row whose key
    /// occurs in b is itself in h', so the key sets agree).
    fn check_head(
        &mut self,
        b_len: usize,
        sup: Frac,
        i: usize,
        h_len: usize,
        h_hits: usize,
        b_hits: usize,
    ) -> ControlFlow<()> {
        let setup = self.setup;
        let cvr = Frac::ratio_or_zero(h_hits as u64, h_len as u64);
        if let Some(k) = setup.thresholds.cvr {
            if cvr <= k {
                return ControlFlow::Continue(());
            }
        }
        let cnf = Frac::ratio_or_zero(b_hits as u64, b_len as u64);
        if let Some(k) = setup.thresholds.cnf {
            if cnf <= k {
                return ControlFlow::Continue(());
            }
        }
        let iv = IndexValues { sup, cnf, cvr };
        if !setup.thresholds.accepts(&iv) {
            return ControlFlow::Continue(());
        }
        // Assemble the full instantiation in rep(MQ) order.
        let mut maps = Vec::new();
        if setup.head_is_pattern {
            let head = &setup.heads[i];
            maps.push(PatternMap {
                rel: head.rel,
                slots: head.slots.clone(),
            });
        }
        for bi in 0..setup.mq.body.len() {
            if let Some(pidx) = setup.body_pattern[bi] {
                maps.push(self.assign[pidx].clone().expect("assigned"));
            }
        }
        for ni in 0..setup.mq.neg_body.len() {
            if let Some(pidx) = setup.neg_pattern[ni] {
                maps.push(self.assign[pidx].clone().expect("assigned"));
            }
        }
        (self.f)(&MqAnswer {
            inst: Instantiation { maps },
            indices: iv,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::naive;
    use crate::index::IndexKind;
    use crate::parse::parse_metaquery;

    use rand::prelude::*;

    fn random_db(rng: &mut StdRng, rels: &[(&str, usize)], rows: usize, dom: i64) -> Database {
        let mut db = Database::new();
        for &(name, ar) in rels {
            let id = db.add_relation(name, ar);
            for _ in 0..rows {
                let row: Vec<_> = (0..ar)
                    .map(|_| mq_relation::Value::Int(rng.gen_range(0..dom)))
                    .collect();
                db.insert(id, row.into_boxed_slice());
            }
        }
        db
    }

    fn agree(db: &Database, mq_text: &str, ty: InstType, th: Thresholds) {
        let mq = parse_metaquery(mq_text).unwrap();
        let a = naive::find_all(db, &mq, ty, th).unwrap();
        let b = find_rules(db, &mq, ty, th).unwrap();
        assert_eq!(
            a, b,
            "engines disagree on {mq_text} ({ty}, {th:?}):\nnaive={a:#?}\nfindRules={b:#?}"
        );
    }

    #[test]
    fn engines_agree_type0_chain() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let db = random_db(&mut rng, &[("p", 2), ("q", 2), ("r", 2)], 12, 5);
            for th in [
                Thresholds::all(Frac::ZERO, Frac::ZERO, Frac::ZERO),
                Thresholds::all(Frac::new(1, 2), Frac::new(1, 4), Frac::new(1, 4)),
                Thresholds::single(IndexKind::Cnf, Frac::new(1, 3)),
                Thresholds::none(),
            ] {
                agree(&db, "R(X,Z) <- P(X,Y), Q(Y,Z)", InstType::Zero, th);
            }
        }
    }

    #[test]
    fn engines_agree_type1() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..6 {
            let db = random_db(&mut rng, &[("p", 2), ("q", 2)], 10, 4);
            agree(
                &db,
                "R(X,Z) <- P(X,Y), Q(Y,Z)",
                InstType::One,
                Thresholds::all(Frac::ZERO, Frac::ZERO, Frac::ZERO),
            );
        }
    }

    #[test]
    fn engines_agree_type2_mixed_arities() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let db = random_db(&mut rng, &[("p", 2), ("t", 3)], 8, 4);
            agree(
                &db,
                "R(X,Z) <- P(X,Y), Q(Y,Z)",
                InstType::Two,
                Thresholds::all(Frac::new(1, 10), Frac::ZERO, Frac::ZERO),
            );
        }
    }

    #[test]
    fn engines_agree_cyclic_body() {
        // body is a triangle: hypertree width 2 path of the engine.
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..6 {
            let db = random_db(&mut rng, &[("e", 2), ("f", 2)], 12, 4);
            agree(
                &db,
                "H(X,Y) <- P(X,Y), Q(Y,Z), R(Z,X)",
                InstType::Zero,
                Thresholds::all(Frac::ZERO, Frac::ZERO, Frac::ZERO),
            );
        }
    }

    #[test]
    fn engines_agree_shared_predvars() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..6 {
            let db = random_db(&mut rng, &[("p", 2), ("q", 2)], 10, 4);
            agree(
                &db,
                "P(X,Y) <- P(Y,Z), Q(Z,W)",
                InstType::Zero,
                Thresholds::all(Frac::ZERO, Frac::ZERO, Frac::ZERO),
            );
        }
    }

    #[test]
    fn engines_agree_fixed_body_atom() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..6 {
            let db = random_db(&mut rng, &[("e", 2), ("p", 1), ("q", 1)], 10, 4);
            agree(
                &db,
                "N(X) <- N(Y), e(X,Y)",
                InstType::Zero,
                Thresholds::all(Frac::ZERO, Frac::ZERO, Frac::ZERO),
            );
        }
    }

    #[test]
    fn decide_matches_naive() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..8 {
            let db = random_db(&mut rng, &[("p", 2), ("q", 2)], 10, 4);
            let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
            for kind in IndexKind::ALL {
                for k in [Frac::ZERO, Frac::new(1, 2), Frac::new(9, 10)] {
                    let p = MqProblem {
                        index: kind,
                        threshold: k,
                        ty: InstType::Zero,
                    };
                    assert_eq!(
                        naive::decide(&db, &mq, p).unwrap(),
                        decide(&db, &mq, p).unwrap(),
                        "decide disagrees for {kind} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_order() {
        // The scheduler must return byte-identical, identically ordered
        // answers to the sequential engine. Force a multi-worker pool
        // even on single-core machines so the fan-out actually runs (a
        // thread-local override — env mutation is unsound under
        // concurrent reads).
        rayon::set_thread_override(Some(3));
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..6 {
            let db = random_db(&mut rng, &[("p", 2), ("q", 2), ("r", 2)], 14, 5);
            let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
            for th in [
                Thresholds::none(),
                Thresholds::all(Frac::new(1, 10), Frac::new(1, 10), Frac::new(1, 10)),
            ] {
                let par = find_rules(&db, &mq, InstType::Zero, th).unwrap();
                let seq = find_rules_seq(&db, &mq, InstType::Zero, th).unwrap();
                assert_eq!(par, seq, "parallel and sequential answers must match");
            }
        }
        rayon::set_thread_override(None);
    }

    #[test]
    fn prefix_tasks_cover_enumeration_in_order() {
        // Depth-2 tasks over "R(X,Z) <- P(X,Y), Q(Y,Z)" with 2 relations:
        // the cartesian product of both body patterns' candidates, in
        // enumeration order.
        let mut rng = StdRng::seed_from_u64(9);
        let db = random_db(&mut rng, &[("p", 2), ("q", 2)], 6, 3);
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        let setup = Setup::new(&db, &mq, InstType::Zero, Thresholds::none(), None);
        assert_eq!(setup.enum_order.len(), 2);
        let d1 = setup.prefix_tasks(1);
        let d2 = setup.prefix_tasks(2);
        assert_eq!(d1.len(), 2, "2 relations × 1 slot map for pattern 1");
        assert_eq!(d2.len(), 4, "cartesian product at depth 2");
        // Depth-2 tasks refine depth-1 tasks in order.
        for (i, task) in d2.iter().enumerate() {
            assert_eq!(task.len(), 2);
            assert_eq!(task[0], d1[i / 2][0], "prefix order must nest");
        }
        // A shared predicate variable locks the relation across patterns.
        let mq2 = parse_metaquery("R(X,Z) <- P(X,Y), P(Y,Z)").unwrap();
        let setup2 = Setup::new(&db, &mq2, InstType::Zero, Thresholds::none(), None);
        for task in setup2.prefix_tasks(2) {
            assert_eq!(task[0].1, task[1].1, "shared pv must lock the relation");
        }
    }

    #[test]
    fn budgeted_search_honors_deadline_and_matches_when_unconstrained() {
        let mut rng = StdRng::seed_from_u64(10);
        let db = random_db(&mut rng, &[("p", 2), ("q", 2)], 12, 4);
        let mq = parse_metaquery("R(X,Z) <- P(X,Y), Q(Y,Z)").unwrap();
        let th = Thresholds::none();
        let budgeted =
            |ms| find_rules_instrumented(&db, &mq, InstType::Zero, th, None, ms, None, 0);
        // An already-expired budget fails fast with the budget echoed.
        let err = budgeted(Some(0)).unwrap_err();
        assert!(
            matches!(err, InstError::DeadlineExceeded { budget_ms: 0 }),
            "want DeadlineExceeded, got {err:?}"
        );
        // A generous budget and no budget both match the sequential
        // reference byte-for-byte.
        let seq = find_rules_seq(&db, &mq, InstType::Zero, th).unwrap();
        assert_eq!(budgeted(Some(60_000)).unwrap(), seq);
        assert_eq!(budgeted(None).unwrap(), seq);
    }

    #[test]
    fn body_decomposition_widths() {
        let chain = parse_metaquery("R(X,W) <- P(X,Y), Q(Y,Z), S(Z,W)").unwrap();
        assert_eq!(body_decomposition(&chain).width, 1);
        let triangle = parse_metaquery("R(X,Y) <- P(X,Y), Q(Y,Z), S(Z,X)").unwrap();
        assert_eq!(body_decomposition(&triangle).width, 2);
    }
}
