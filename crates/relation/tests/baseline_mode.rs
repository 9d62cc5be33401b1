//! The baseline switch really routes the public algebra API.
//!
//! Lives in its own integration-test binary (= its own process) because
//! the switch is process-global: toggling it inside the crate's unit-test
//! binary would race the other algebra tests and silently weaken them.

use mq_relation::{baseline_mode, ints, set_baseline_mode, Bindings, Relation, Term, VarId};

#[test]
fn baseline_mode_round_trip() {
    let e = Relation::from_rows("e", 2, vec![ints(&[1, 2]), ints(&[2, 3]), ints(&[3, 4])]);
    let terms = [Term::Var(VarId(0)), Term::Var(VarId(1))];
    assert!(!baseline_mode());
    let fast = Bindings::from_atom(&e, &terms);
    set_baseline_mode(true);
    assert!(baseline_mode());
    let slow = Bindings::from_atom(&e, &terms);
    set_baseline_mode(false);
    assert_eq!(fast.sorted().to_rows(), slow.sorted().to_rows());

    // Joins and semijoins agree across the switch too.
    let a = Bindings::from_atom(&e, &terms);
    let b = Bindings::from_atom(&e, &[Term::Var(VarId(1)), Term::Var(VarId(2))]);
    let fast_join = a.join(&b).sorted();
    let fast_semi = a.semijoin(&b).sorted();
    set_baseline_mode(true);
    let slow_join = a.join(&b).sorted();
    let slow_semi = a.semijoin(&b).sorted();
    set_baseline_mode(false);
    let all = [VarId(0), VarId(1), VarId(2)];
    let (fj, sj) = (
        fast_join.project(&all).sorted(),
        slow_join.project(&all).sorted(),
    );
    assert_eq!(fj.to_rows(), sj.to_rows());
    assert_eq!(fast_semi.to_rows(), slow_semi.to_rows());
}
