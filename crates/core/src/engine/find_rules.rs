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
//! 2. At the root, the *second half* of the full reducer produces globally
//!    consistent reduced relations `s[·]`, from which `enoughSupport`
//!    evaluates `sup(σb(body)) > k_sup` exactly and cheaply.
//! 3. **findHeads** — the body join `b = J(σb(body(MQ)))` is assembled
//!    from the reduced relations; every head instantiation `σh` that
//!    agrees with `σb` is checked with two semijoin counts,
//!    `cvr = |h ⋉ b| / |h|` and `cnf = |b ⋉ h| / |b|`. The heads are the
//!    same atoms for every body, so the first `findHeads` of a search
//!    merges all of them into one [`mq_relation::HeadTable`] (distinct
//!    shared key, sorted by variable → the heads holding it and their
//!    rows with it), shared by every worker. Each body then costs one
//!    head-count op: `b`'s rows stream once against the table behind a
//!    key filter, yielding `|b|` and cover and confidence for every head
//!    at once. Every body is assembled one way: a type-2 atom padded
//!    with variables outside every χ is first joined into its home
//!    vertex, so the vertex relations stay calibrated; then, with no
//!    negated literal, `b` is never built: the op is handed the join of
//!    every vertex but the last and the last vertex relation, and
//!    streams their join row pair by row pair without gathering a
//!    column.
//!
//! The decomposition is computed once: by Proposition 4.9, applying any
//! instantiation `σ` to the `λ` labels preserves a width-`c`
//! decomposition, so one decomposition serves every instantiation.
//!
//! ## Architecture
//!
//! The engine is three explicit layers (see `ARCHITECTURE.md`):
//!
//! * **Planner** ([`crate::plan`]) — a pure function from a vertex's χ
//!   and λ-atom statistics to a hash-consed [`crate::plan::PlanOp`] DAG;
//! * **Executor** (`engine::exec`) — interprets plan nodes against
//!   [`Bindings`], memoizing per plan-node id (atom cache, plan cache,
//!   result memo); the count-only cvr/cnf/sup paths (the head-count op
//!   and the `CountPlan`s) run through it too;
//! * **Scheduler** ([`super::parallel`]) — splits the search over
//!   instantiation prefixes of [`super::parallel::SPLIT_DEPTH`]
//!   patterns and drains the task deque with work-stealing workers,
//!   merging results in enumeration order so answers are
//!   byte-identical to [`find_rules_seq`].
//!
//! This module is the remaining orchestration: the immutable `Setup`
//! (decomposition, candidates, thresholds, enumeration order) and the
//! per-search `Engine` (assignment stacks, node relations, executor)
//! driving the three phases.

use crate::ast::{Metaquery, Pred, PredVarId};
use crate::engine::exec::Executor;
use crate::engine::{MqAnswer, MqProblem, Thresholds};
use crate::index::IndexValues;
use crate::instantiate::{
    check_fixed_schemes, pattern_candidates, InstError, InstType, Instantiation, PatternMap,
};
use crate::plan::{AtomKey, CountPlan};
use mq_cq::hypertree::{hypertree_width_of_sets, Hypertree};
use mq_relation::{Bindings, Database, Frac, HeadScratch, HeadTable, RelId, Term, VarId};
use std::collections::{BTreeSet, HashMap};
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Find all type-`ty` instantiations whose indices clear `thresholds`,
/// using the Figure 4 algorithm with the search run on the work-stealing
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
///   The serving layer passes one seeded from a catalog's persistent
///   cross-search [`AtomCache`](super::memo::AtomCache)
///   (`SharedMemos::with_persistent_atoms`) and reads per-search hit
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
/// function of its key and the snapshot the generations describe (see
/// the memo-sharing contract in `ARCHITECTURE.md`).
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
pub fn body_decomposition(mq: &Metaquery) -> BodyDecomposition {
    let edges: Vec<BTreeSet<VarId>> = mq.body.iter().map(|l| l.var_set()).collect();
    let (width, ht) = hypertree_width_of_sets(&edges).expect("non-empty body");
    BodyDecomposition {
        width,
        vertices: ht.len(),
    }
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
    /// The count-only plan `|inputs[0] ⋉ inputs[1]|` behind
    /// `enoughSupport` (`[atom, s[home]]`).
    semijoin_count_plan: CountPlan,
    /// The cross-worker shared memo service (atoms, plans, node
    /// results), created once per search — or supplied by the serving
    /// layer, possibly seeded with a persistent cross-search atom cache
    /// — and handed to every worker's executor.
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
    /// supplied memo service (the serving layer's, possibly seeded with
    /// a persistent atom cache); `None` creates a fresh one.
    pub(crate) fn new(
        db: &'a Database,
        mq: &'a Metaquery,
        ty: InstType,
        thresholds: Thresholds,
        memos: Option<Arc<super::memo::SharedMemos>>,
    ) -> Self {
        // Decomposition of the body literal schemes' ordinary variables.
        let edges: Vec<BTreeSet<VarId>> = mq.body.iter().map(|l| l.var_set()).collect();
        let (_, mut ht) = hypertree_width_of_sets(&edges).expect("non-empty body");
        ht.complete_edges(edges.len());
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
            semijoin_count_plan: CountPlan::semijoin_count(0, 1),
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
        let mut locked: HashMap<PredVarId, (RelId, usize)> = HashMap::new();
        let mut cur: Vec<PrefixAssign> = Vec::with_capacity(pats.len());
        self.gen_prefix(&pats, 0, &mut locked, &mut cur, &mut tasks);
        tasks
    }

    fn gen_prefix(
        &self,
        pats: &[usize],
        k: usize,
        locked: &mut HashMap<PredVarId, (RelId, usize)>,
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
            locked
                .entry(pv)
                .and_modify(|e| e.1 += 1)
                .or_insert((rel, 1));
            for slots in &self.candidates[pidx][&rel] {
                cur.push((pidx, rel, slots.clone()));
                self.gen_prefix(pats, k + 1, locked, cur, out);
                cur.pop();
            }
            match locked.get_mut(&pv) {
                Some(e) if e.1 == 1 => {
                    locked.remove(&pv);
                }
                Some(e) => e.1 -= 1,
                None => {}
            }
        }
    }
}

/// Per-search mutable state: assignment stacks, node relations, and the
/// plan executor with its memos. Cheap to construct — one per worker,
/// reused across every task the worker steals (so memo slices accumulate).
pub(crate) struct Engine<'a, 'b, F> {
    setup: &'b Setup<'a>,
    exec: Executor<'a>,
    f: F,
    /// Search state: per-pattern assignment.
    assign: Vec<Option<PatternMap>>,
    /// Predicate variable -> (relation, how many patterns pinned it).
    pv_rel: HashMap<PredVarId, (RelId, usize)>,
    /// Per postorder position: the reduced node relation `r[i]`.
    r: Vec<Option<Bindings>>,
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
            r: vec![None; n_pos],
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
        let pv = self.setup.pattern_pv[pidx];
        self.pv_rel
            .entry(pv)
            .and_modify(|e| e.1 += 1)
            .or_insert((rel, 1));
        self.assign[pidx] = Some(PatternMap { rel, slots });
    }

    /// Undo a [`Engine::preassign`].
    fn unassign(&mut self, pidx: usize) {
        self.assign[pidx] = None;
        self.unpin(self.setup.pattern_pv[pidx]);
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

    /// Instantiated terms for body scheme `bi` under the current (partial)
    /// assignment. Only called when the scheme is fixed or assigned.
    fn body_atom_terms(&self, bi: usize) -> AtomKey {
        let setup = self.setup;
        let scheme = &setup.mq.body[bi];
        match setup.body_pattern[bi] {
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
        let (rel, terms) = self.body_atom_terms(bi);
        self.eval_atom(rel, terms)
    }

    /// `π_χ(J(σi(λ(p_ν(i)))))` for vertex `node`: collect the λ atoms'
    /// instantiated keys and hand them to the executor, which plans
    /// (memoized by `(χ, atoms)`) and executes (memoized by plan-node id).
    fn eval_node_join(&mut self, node: usize, lambda: &[usize]) -> Arc<Bindings> {
        let keys: Vec<AtomKey> = lambda.iter().map(|&bi| self.body_atom_terms(bi)).collect();
        self.exec.node_join(&self.setup.chi_sorted[node], keys)
    }

    /// Instantiated terms for negated body scheme `ni` (must be fixed or
    /// assigned).
    fn neg_atom_terms(&self, ni: usize) -> AtomKey {
        let setup = self.setup;
        let scheme = &setup.mq.neg_body[ni];
        match setup.neg_pattern[ni] {
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
            // One fused sweep over all children: same probe count as
            // folded binary semijoins, but survivors materialize once.
            let children = &self.setup.ht.children[node];
            let r_i = if children.is_empty() {
                (*projected).clone()
            } else {
                let child_rs: Vec<&Bindings> = children
                    .iter()
                    .map(|&child| {
                        let cpos = self.setup.pos_of[child];
                        self.r[cpos].as_ref().expect("children visited first")
                    })
                    .collect();
                projected.semijoin_all(&child_rs)
            };
            if r_i.is_empty() && !self.setup.zero_ok {
                return ControlFlow::Continue(()); // prune this branch
            }
            self.r[i] = Some(r_i);
            let flow = self.find_bodies(i + 1);
            self.r[i] = None;
            return flow;
        }

        let setup = self.setup;
        let pidx = to_assign[depth];
        let pv = setup.pattern_pv[pidx];
        let locked = self.pv_rel.get(&pv).map(|&(r, _)| r);
        for &rel in setup.rels(pidx, locked) {
            self.pv_rel
                .entry(pv)
                .and_modify(|e| e.1 += 1)
                .or_insert((rel, 1));
            for slots in &setup.candidates[pidx][&rel] {
                self.assign[pidx] = Some(PatternMap {
                    rel,
                    slots: slots.clone(),
                });
                let flow = self.enum_node(i, node, lambda, to_assign, depth + 1);
                self.assign[pidx] = None;
                if flow.is_break() {
                    self.unpin(pv);
                    return ControlFlow::Break(());
                }
            }
            self.unpin(pv);
        }
        ControlFlow::Continue(())
    }

    fn unpin(&mut self, pv: PredVarId) {
        if let Some(e) = self.pv_rel.get_mut(&pv) {
            if e.1 == 1 {
                self.pv_rel.remove(&pv);
            } else {
                e.1 -= 1;
            }
        }
    }

    /// Second half of the full reducer, `enoughSupport`, and `findHeads`.
    fn second_half_and_heads(&mut self) -> ControlFlow<()> {
        let setup = self.setup;
        let n = setup.post.len();
        // s[j] for postorder positions; root is position n-1.
        let mut s: Vec<Bindings> = Vec::with_capacity(n);
        for j in 0..n {
            s.push(self.r[j].as_ref().expect("all nodes computed").clone());
        }
        for j in (0..n.saturating_sub(1)).rev() {
            let node = setup.post[j];
            let parent = setup.ht.parent[node].expect("non-root has parent");
            let ppos = setup.pos_of[parent];
            // `s[j]` is still the pristine `r[j]` here (each node is
            // reduced exactly once, top-down), so its index cache is the
            // long-lived one shared with the executor's memoized value —
            // index that side, probe the small already-reduced parent.
            s[j] = s[j].semijoin_indexed(&s[ppos]);
        }

        // enoughSupport (exact: sup > k iff some atom's fraction > k).
        let mut body_atoms: Vec<Arc<Bindings>> = Vec::with_capacity(setup.mq.body.len());
        for bi in 0..setup.mq.body.len() {
            body_atoms.push(self.eval_body_atom(bi));
        }
        if let Some(ksup) = setup.thresholds.sup {
            let mut enough = false;
            for (bi, ra) in body_atoms.iter().enumerate() {
                if ra.is_empty() {
                    continue;
                }
                let s_home = &s[setup.pos_of[setup.ht.atom_home[bi]]];
                // When s[home] ranges over exactly the atom's variables it
                // is itself the reduced atom (every s-row is an ra-row and
                // reduction only drops rows), so |ra ⋉ s| = |s|.
                let reduced = if s_home.vars() == ra.vars() {
                    s_home.len()
                } else {
                    self.exec
                        .exec_count(&setup.semijoin_count_plan, &[ra, s_home])
                };
                if Frac::ratio_or_zero(reduced as u64, ra.len() as u64) > ksup {
                    enough = true;
                    break;
                }
            }
            if !enough {
                return ControlFlow::Continue(());
            }
        }

        // Type-2 instantiations can pad an atom with fresh variables that
        // occur in that atom alone and in no χ. Join each such atom into
        // its home vertex: `π_{χ ∪ pad}(b) = s[home] ⋈ ra`, because the
        // padding extends a row of `b` independently of everything else.
        // The tree stays calibrated — `s[j] = π_vars(s[j])(b)` for every
        // vertex — and every atom's variables now sit inside its home.
        // Index the stable atom side (cached across bodies by the
        // executor's atom memo), probe the small reduced side.
        for (bi, ra) in body_atoms.iter().enumerate() {
            let home = setup.pos_of[setup.ht.atom_home[bi]];
            if ra.vars().iter().any(|v| s[home].position(*v).is_none()) {
                s[home] = s[home].join(&ra.semijoin_indexed(&s[home]));
            }
        }

        // With no negated literals, the exact support is available from
        // the calibrated vertex relations: projection composes, so
        // `π_vars(b) = π_vars(s[home])` and the support count runs over
        // the (small) vertex relation, never the body join; when the
        // variables are *exactly* the vertex's, the count is `|s[home]|`.
        let sup_hint: Option<Frac> = if setup.mq.neg_body.is_empty() {
            let mut sup = Frac::ZERO;
            for (bi, ra) in body_atoms.iter().enumerate() {
                if ra.is_empty() {
                    continue;
                }
                let s_home = &s[setup.pos_of[setup.ht.atom_home[bi]]];
                let vars = self.mq_body_atom_vars(bi);
                let num = if s_home.vars() == vars.as_slice() {
                    s_home.len()
                } else {
                    self.exec
                        .exec_count(&CountPlan::count_distinct(0, vars), &[s_home])
                };
                sup = sup.max(Frac::ratio_or_zero(num as u64, ra.len() as u64));
            }
            Some(sup)
        } else {
            None
        };

        // b := J(σb(body(MQ))). Every vertex relation is calibrated, so
        // joining them along the decomposition reconstructs `b` exactly:
        // every atom's constraint is already inside its home's s[j], the
        // χ-connectedness condition keeps every join keyed when parents
        // join before children (postorder positions descend root-first),
        // and a vertex whose variables are already covered satisfies
        // `b ⋉ s[j] = b` and is skipped outright. With no negated literal
        // to filter `b`, its last join is never built: every vertex but
        // the last uncovered one joins into a prefix, and `findHeads`
        // streams `prefix ⋈ s[last]` against the head table, which also
        // yields `|b|` (a body with negated literals joins the last
        // vertex too, then filters).
        let mut prefix = s[n - 1].clone();
        let mut last: Option<usize> = None;
        for j in (0..n.saturating_sub(1)).rev() {
            let bound = |v: &VarId| {
                prefix.position(*v).is_some() || last.is_some_and(|l| s[l].position(*v).is_some())
            };
            if s[j].vars().iter().all(bound) {
                continue; // covered: s[j] = π_vars(s[j])(b) adds nothing
            }
            if let Some(l) = last.replace(j) {
                prefix = prefix.join(&s[l]);
                if prefix.is_empty() && !setup.zero_ok {
                    return ControlFlow::Continue(());
                }
            }
        }
        let Some(l) = last else {
            return self.enum_neg(0, prefix, &body_atoms, sup_hint);
        };
        if let Some(sup) = sup_hint {
            return self.find_heads(&prefix, &s[l], sup);
        }
        let b = prefix.join(&s[l]);
        if b.is_empty() && !setup.zero_ok {
            return ControlFlow::Continue(());
        }
        self.enum_neg(0, b, &body_atoms, sup_hint)
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
        sup_hint: Option<Frac>,
    ) -> ControlFlow<()> {
        let setup = self.setup;
        if ni == setup.mq.neg_body.len() {
            // Exact support values for reporting, on the filtered join
            // (or precomputed from the reduced tree when no negated atom
            // filtered it — see `second_half_and_heads`).
            let sup = match sup_hint {
                Some(s) => s,
                None => {
                    let mut sup = Frac::ZERO;
                    for (bi, ra) in body_atoms.iter().enumerate() {
                        if ra.is_empty() {
                            continue;
                        }
                        let vars = self.mq_body_atom_vars(bi);
                        let num = self
                            .exec
                            .exec_count(&CountPlan::count_distinct(0, vars), &[&b])
                            as u64;
                        let f = Frac::ratio_or_zero(num, ra.len() as u64);
                        if f > sup {
                            sup = f;
                        }
                    }
                    sup
                }
            };
            return self.find_heads(&b, &setup.unit, sup);
        }
        match setup.neg_pattern[ni].filter(|&pidx| self.assign[pidx].is_none()) {
            None => {
                // Fixed atom or already-assigned pattern: filter and go on.
                let (rel, terms) = self.neg_atom_terms(ni);
                let jn = self.eval_atom(rel, terms);
                let filtered = b.antijoin(&jn);
                if filtered.is_empty() && !setup.zero_ok {
                    return ControlFlow::Continue(());
                }
                self.enum_neg(ni + 1, filtered, body_atoms, sup_hint)
            }
            Some(pidx) => {
                let pv = setup.pattern_pv[pidx];
                let locked = self.pv_rel.get(&pv).map(|&(r, _)| r);
                for &rel in setup.rels(pidx, locked) {
                    self.pv_rel
                        .entry(pv)
                        .and_modify(|e| e.1 += 1)
                        .or_insert((rel, 1));
                    for slots in &setup.candidates[pidx][&rel] {
                        self.assign[pidx] = Some(PatternMap {
                            rel,
                            slots: slots.clone(),
                        });
                        let (nrel, terms) = self.neg_atom_terms(ni);
                        let jn = self.eval_atom(nrel, terms);
                        let filtered = b.antijoin(&jn);
                        let flow = if filtered.is_empty() && !setup.zero_ok {
                            ControlFlow::Continue(())
                        } else {
                            self.enum_neg(ni + 1, filtered, body_atoms, sup_hint)
                        };
                        self.assign[pidx] = None;
                        if flow.is_break() {
                            self.unpin(pv);
                            return ControlFlow::Break(());
                        }
                    }
                    self.unpin(pv);
                }
                ControlFlow::Continue(())
            }
        }
    }

    /// Distinct variables of instantiated body atom `bi` (including
    /// padding).
    fn mq_body_atom_vars(&self, bi: usize) -> Vec<VarId> {
        let (_, terms) = self.body_atom_terms(bi);
        mq_relation::distinct_vars(&terms)
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
        // even on single-core machines so the fan-out actually runs (an
        // atomic override — env mutation is unsound under concurrent
        // reads).
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
