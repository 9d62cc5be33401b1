//! Golden answers: a committed digest per case of what `mq mine` prints
//! and what `mq decide` answers, for both engines.
//!
//! A case is a (database, metaquery, instantiation type, threshold set)
//! for `mine` and a (database, metaquery, type) for `decide`, which
//! decides every index at a few `k`. Each case's output is rendered
//! exactly as the `mq` binary prints it, hashed with 64-bit FNV-1a, and
//! compared with `tests/golden_answers.digests`. `findRules` and the
//! naive engine must both reproduce the recorded digest, so a refactor
//! that changes any answer, index value, answer order or decision fails
//! here even when both engines drift together.
//!
//! The corpus is small on purpose: naive type-2 search is combinatorial.
//! It covers a seeded Int+Sym database, a database with unary, binary
//! and ternary relations (its type-2 cases pad binary patterns onto the
//! ternary relation) and the telecom database of Figure 1.
//!
//! Regenerate the file with
//! `cargo test --test golden_answers -- --ignored regenerate`, only when
//! answers are meant to change, and say in CHANGES.md which ones and
//! why.

use metaquery::core::engine::{find_rules, naive};
use metaquery::core::instantiate::InstError;
use metaquery::datagen::{metaqueries, telecom};
use metaquery::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const DIGESTS: &str = "tests/golden_answers.digests";

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A tiny xorshift generator, so the corpus depends on no RNG crate.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// Binary `p`, `q`, `r` over a domain mixing integers and symbols.
fn int_sym_db() -> Database {
    let mut db = Database::new();
    let pool: Vec<Value> = vec![
        Value::Int(0),
        Value::Int(1),
        Value::Int(2),
        db.sym("a"),
        db.sym("b"),
    ];
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    for name in ["p", "q", "r"] {
        let id = db.add_relation(name, 2);
        for _ in 0..9 {
            let row = vec![
                pool[rng.below(pool.len() as u64) as usize],
                pool[rng.below(pool.len() as u64) as usize],
            ];
            db.insert(id, row.into_boxed_slice());
        }
    }
    db
}

/// Unary `u`, binary `p` and ternary `t` over a small integer domain.
fn ternary_db() -> Database {
    let mut db = Database::new();
    let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
    for (name, arity, rows) in [("u", 1, 3), ("p", 2, 6), ("t", 3, 6)] {
        let id = db.add_relation(name, arity);
        for _ in 0..rows {
            let row: Vec<Value> = (0..arity)
                .map(|_| Value::Int(rng.below(3) as i64))
                .collect();
            db.insert(id, row.into_boxed_slice());
        }
    }
    db
}

const T0: &[InstType] = &[InstType::Zero];
const T01: &[InstType] = &[InstType::Zero, InstType::One];
const T2: &[InstType] = &[InstType::Two];
const T02: &[InstType] = &[InstType::Zero, InstType::Two];
const T012: &[InstType] = &InstType::ALL;

/// A named metaquery and the instantiation types it runs under.
type Case = (&'static str, Metaquery, &'static [InstType]);

fn mq(text: &str) -> Metaquery {
    parse_metaquery(text).unwrap()
}

/// Each database with its metaqueries. Type 2 runs where naive search
/// stays small: on the ternary database a binary pattern has 8
/// candidates, so a 4-pattern type-2 metaquery is already 4096
/// instantiations.
fn corpus() -> Vec<(&'static str, Database, Vec<Case>)> {
    let binary = |fixed: &str| -> Vec<Case> {
        vec![
            ("chain", metaqueries::chain(2), T012),
            ("3-chain", metaqueries::chain(3), T01),
            ("cycle", metaqueries::cycle(4), T0),
            // A unary head over binary relations needs type-2 padding.
            ("star2", metaqueries::star(2), T2),
            ("triangle", mq("H(X,Y) <- P(X,Y), Q(Y,Z), S(Z,X)"), T01),
            ("shared-pv", mq("P(X,Y) <- P(Y,Z), Q(Z,W)"), T012),
            (
                "fixed-atom",
                mq(&format!("R(X,Z) <- P(X,Y), {fixed}(Y,Z)")),
                T012,
            ),
            ("disconnected", mq("R(X) <- P(X), Q(Y)"), T02),
            ("negation", mq("R(X,Z) <- P(X,Y), Q(Y,Z), not S(X,Z)"), T01),
            (
                "fixed-negation",
                mq(&format!("R(X,Z) <- P(X,Y), Q(Y,Z), not {fixed}(X,Z)")),
                T012,
            ),
        ]
    };
    vec![
        ("intsym", int_sym_db(), binary("p")),
        (
            "ternary",
            ternary_db(),
            vec![
                ("chain", metaqueries::chain(2), T012),
                ("3-chain", metaqueries::chain(3), T01),
                ("cycle", metaqueries::cycle(4), T01),
                ("star", metaqueries::star(3), T01),
                ("star2", metaqueries::star(2), T012),
                ("triangle", mq("H(X,Y) <- P(X,Y), Q(Y,Z), S(Z,X)"), T01),
                ("shared-pv", mq("P(X,Y) <- P(Y,Z), Q(Z,W)"), T012),
                ("fixed-atom", mq("R(X,Z) <- P(X,Y), p(Y,Z)"), T012),
                ("fixed-ternary", mq("R(X,Z) <- P(X,Y), t(Y,Z,W)"), T012),
                ("disconnected", mq("R(X) <- P(X), Q(Y)"), T012),
                ("negation", mq("R(X,Z) <- P(X,Y), Q(Y,Z), not S(X,Z)"), T01),
                (
                    "fixed-negation",
                    mq("R(X,Z) <- P(X,Y), Q(Y,Z), not p(X,Z)"),
                    T012,
                ),
            ],
        ),
        ("telecom", telecom::db1(), binary("UsCa")),
    ]
}

fn threshold_sets() -> Vec<Thresholds> {
    vec![
        Thresholds::none(),
        Thresholds::all(Frac::ZERO, Frac::ZERO, Frac::ZERO),
        Thresholds::all(Frac::new(1, 4), Frac::new(1, 4), Frac::new(1, 2)),
        Thresholds::single(IndexKind::Cnf, Frac::new(1, 3)),
    ]
}

fn label(th: &Thresholds) -> String {
    let show = |k: Option<Frac>| k.map_or("-".to_string(), |k| k.to_string());
    format!(
        "sup={} cvr={} cnf={}",
        show(th.sup),
        show(th.cvr),
        show(th.cnf)
    )
}

/// What `mq mine` prints for `result`.
fn render_mine(db: &Database, mq: &Metaquery, result: Result<Vec<MqAnswer>, InstError>) -> String {
    let mut out = String::new();
    match result {
        Ok(mut answers) => {
            answers.sort_by(|a, b| b.indices.cnf.cmp(&a.indices.cnf).then(a.inst.cmp(&b.inst)));
            writeln!(out, "{} rule(s):", answers.len()).unwrap();
            for a in &answers {
                let rendered = match apply_instantiation(db, mq, &a.inst) {
                    Ok(rule) => rule.render(db),
                    Err(e) => format!("<unrenderable: {e}>"),
                };
                writeln!(
                    out,
                    "  {:<60} sup={} cvr={} cnf={}",
                    rendered, a.indices.sup, a.indices.cvr, a.indices.cnf
                )
                .unwrap();
            }
        }
        Err(e) => writeln!(out, "error: {e}").unwrap(),
    }
    out
}

/// What `mq decide` prints for every index at a few `k`.
fn render_decide(
    ty: InstType,
    mut decide: impl FnMut(MqProblem) -> Result<bool, InstError>,
) -> String {
    let mut out = String::new();
    for index in IndexKind::ALL {
        for threshold in [Frac::ZERO, Frac::new(1, 2), Frac::new(9, 10)] {
            let problem = MqProblem {
                index,
                threshold,
                ty,
            };
            match decide(problem) {
                Ok(yes) => writeln!(out, "{problem}: {}", if yes { "YES" } else { "NO" }),
                Err(e) => writeln!(out, "error: {e}"),
            }
            .unwrap();
        }
    }
    out
}

/// Every case's digest on database `name`, per engine:
/// `(findRules, naive)` keyed by the case name.
fn compute(name: &str, db: &Database, cases: &[Case]) -> BTreeMap<String, (u64, u64)> {
    let mut out = BTreeMap::new();
    for (mq_name, mq, types) in cases {
        for &ty in *types {
            for th in threshold_sets() {
                let key = format!("mine   {name} | {mq_name} | {ty} | {}", label(&th));
                let fr = render_mine(db, mq, find_rules::find_rules(db, mq, ty, th));
                let nv = render_mine(db, mq, naive::find_all(db, mq, ty, th));
                out.insert(key, (fnv1a(fr.as_bytes()), fnv1a(nv.as_bytes())));
            }
            let key = format!("decide {name} | {mq_name} | {ty}");
            let fr = render_decide(ty, |p| find_rules::decide(db, mq, p));
            let nv = render_decide(ty, |p| naive::decide(db, mq, p));
            out.insert(key, (fnv1a(fr.as_bytes()), fnv1a(nv.as_bytes())));
        }
    }
    out
}

/// The committed digests: one `<case> = <16 hex digits>` per line.
fn recorded() -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(DIGESTS).expect("golden digest file");
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, hex) = l.rsplit_once(" = ").expect("`<case> = <digest>`");
            (key.to_string(), u64::from_str_radix(hex, 16).expect("hex"))
        })
        .collect()
}

/// Both engines reproduce every recorded digest of database `name`, and
/// the file records no case of it that is no longer run.
fn check(name: &str) {
    let (_, db, cases) = corpus()
        .into_iter()
        .find(|(n, _, _)| *n == name)
        .expect("a corpus database");
    let got = compute(name, &db, &cases);
    let want = recorded();
    let mut wrong = Vec::new();
    for (key, &(fr, nv)) in &got {
        match want.get(key) {
            None => wrong.push(format!("unrecorded case: {key}")),
            Some(&d) => {
                if fr != d {
                    wrong.push(format!("findRules: {key}: {fr:016x}, recorded {d:016x}"));
                }
                if nv != d {
                    wrong.push(format!("naive: {key}: {nv:016x}, recorded {d:016x}"));
                }
            }
        }
    }
    let prefixes = [format!("mine   {name} | "), format!("decide {name} | ")];
    for key in want.keys() {
        if prefixes.iter().any(|p| key.starts_with(p.as_str())) && !got.contains_key(key) {
            wrong.push(format!("recorded case no longer run: {key}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn golden_answers_int_sym_db() {
    check("intsym");
}

#[test]
fn golden_answers_ternary_db() {
    check("ternary");
}

#[test]
fn golden_answers_telecom_db1() {
    check("telecom");
}

#[test]
#[ignore = "rewrites the golden digest file"]
fn regenerate() {
    let mut text = String::from(
        "# Golden answer digests (FNV-1a 64 of the rendered output), one per case.\n\
         # Written by `cargo test --test golden_answers -- --ignored regenerate`.\n",
    );
    for (name, db, cases) in corpus() {
        for (key, (fr, nv)) in compute(name, &db, &cases) {
            assert_eq!(fr, nv, "engines disagree on {key}");
            writeln!(text, "{key} = {fr:016x}").unwrap();
        }
    }
    std::fs::write(DIGESTS, text).unwrap();
}
