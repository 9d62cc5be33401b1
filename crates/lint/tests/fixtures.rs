//! Seeded-violation fixtures: each file in `crates/lint/fixtures/`
//! carries exactly the violations its header comment says, and the
//! engine must report the exact rule id on the exact line.
//!
//! Fixtures are fed through the library API under fake workspace paths
//! (rule scopes are path-based); the binary's workspace walk skips
//! `fixtures/` directories, so these files never taint a real run.

use mq_lint::rules::{
    BAD_WAIVER, ERR_CODE_STABILITY, FAULTPOINT_COVERAGE, KNOB_REGISTRY, METRIC_REGISTRY,
    NO_DEPRECATED_CALLS, NO_PANIC_IN_SERVING, NO_RC_REFCELL, POISON_SAFE_LOCKS,
};
use mq_lint::{lint, Diagnostic, SourceFile, Workspace};

/// A PERFORMANCE.md with both generated tables present, one of which
/// can be replaced by a stale body.
fn perf_doc(knob_table: &str, metric_table: &str) -> String {
    format!(
        "# Perf\n<!-- knob-table:begin -->\n{knob_table}<!-- knob-table:end -->\n\
         <!-- metric-table:begin -->\n{metric_table}<!-- metric-table:end -->\n"
    )
}

/// A single-fixture workspace: no docs, no completeness checks.
fn ws(path: &str, text: &str) -> Workspace {
    Workspace {
        files: vec![SourceFile {
            path: path.to_string(),
            text: text.to_string(),
        }],
        architecture_md: None,
        performance_md: None,
        check_completeness: false,
    }
}

fn rule_lines(diags: &[Diagnostic], rule: &str) -> Vec<usize> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn no_panic_fixture_fires_on_the_seeded_line_only() {
    let diags = lint(&ws(
        "crates/service/src/bad.rs",
        include_str!("../fixtures/no_panic.rs"),
    ));
    assert_eq!(rule_lines(&diags, NO_PANIC_IN_SERVING), vec![5]);
    assert_eq!(diags.len(), 1, "test-mod unwrap must be exempt: {diags:?}");
}

#[test]
fn no_panic_fixture_is_clean_outside_serving_scope() {
    let diags = lint(&ws(
        "crates/relation/src/bad.rs",
        include_str!("../fixtures/no_panic.rs"),
    ));
    assert!(diags.is_empty(), "non-serving scope: {diags:?}");
}

#[test]
fn poison_locks_fixture_fires_on_the_seeded_line() {
    let diags = lint(&ws(
        "crates/store/src/bad.rs",
        include_str!("../fixtures/poison_locks.rs"),
    ));
    assert_eq!(rule_lines(&diags, POISON_SAFE_LOCKS), vec![7]);
    assert_eq!(diags.len(), 1, "{diags:?}");
}

#[test]
fn poison_locks_fixture_fires_under_the_relation_layer() {
    // Relations are read concurrently by every search worker, so the
    // relational layer's index caches are in the same scope.
    let diags = lint(&ws(
        "crates/relation/src/bad.rs",
        include_str!("../fixtures/poison_locks.rs"),
    ));
    assert_eq!(rule_lines(&diags, POISON_SAFE_LOCKS), vec![7]);
    assert_eq!(diags.len(), 1, "{diags:?}");
}

#[test]
fn rc_refcell_fixture_fires_on_the_seeded_line() {
    let diags = lint(&ws(
        "crates/core/src/engine/bad.rs",
        include_str!("../fixtures/rc_refcell.rs"),
    ));
    assert_eq!(rule_lines(&diags, NO_RC_REFCELL), vec![4]);
    assert_eq!(diags.len(), 1, "Arc must not be flagged: {diags:?}");
}

#[test]
fn knob_fixture_fires_on_the_undeclared_read() {
    let diags = lint(&ws(
        "crates/core/src/engine/bad.rs",
        include_str!("../fixtures/knob.rs"),
    ));
    assert_eq!(rule_lines(&diags, KNOB_REGISTRY), vec![6]);
    assert_eq!(diags.len(), 1, "{diags:?}");
}

#[test]
fn knob_table_drift_is_a_violation() {
    let mut w = ws("crates/core/src/engine/ok.rs", "pub fn nothing() {}\n");
    w.performance_md = Some(perf_doc(
        "| stale | table |\n",
        &mq_lint::metrics::render_table(),
    ));
    let diags = lint(&w);
    assert_eq!(
        diags.iter().map(|d| d.rule).collect::<Vec<_>>(),
        vec![KNOB_REGISTRY]
    );
    assert_eq!(diags[0].path, "PERFORMANCE.md");

    // …and the generated tables are accepted verbatim.
    w.performance_md = Some(perf_doc(
        &mq_lint::knobs::render_table(),
        &mq_lint::metrics::render_table(),
    ));
    assert!(lint(&w).is_empty());
}

#[test]
fn metric_fixture_fires_on_the_undeclared_registration() {
    let diags = lint(&ws(
        "crates/service/src/bad.rs",
        include_str!("../fixtures/metric.rs"),
    ));
    assert_eq!(rule_lines(&diags, METRIC_REGISTRY), vec![8]);
    assert_eq!(diags.len(), 1, "declared name must pass: {diags:?}");
}

#[test]
fn metric_table_drift_is_a_violation() {
    let mut w = ws("crates/core/src/engine/ok.rs", "pub fn nothing() {}\n");
    w.performance_md = Some(perf_doc(
        &mq_lint::knobs::render_table(),
        "| stale | table |\n",
    ));
    let diags = lint(&w);
    assert_eq!(
        diags.iter().map(|d| d.rule).collect::<Vec<_>>(),
        vec![METRIC_REGISTRY]
    );
    assert_eq!(diags[0].path, "PERFORMANCE.md");
}

#[test]
fn err_code_fixture_fires_on_the_undocumented_code() {
    let mut w = ws(
        "crates/service/src/protocol.rs",
        include_str!("../fixtures/err_code.rs"),
    );
    w.architecture_md =
        Some("# Arch\n<!-- err-codes:begin -->\n`parse`\n<!-- err-codes:end -->\n".to_string());
    let diags = lint(&w);
    assert_eq!(rule_lines(&diags, ERR_CODE_STABILITY), vec![15]);
    assert_eq!(diags.len(), 1, "documented `parse` is fine: {diags:?}");

    // Documenting the code clears it.
    w.architecture_md = Some(
        "# Arch\n<!-- err-codes:begin -->\n`novel-code` `parse`\n<!-- err-codes:end -->\n"
            .to_string(),
    );
    assert!(lint(&w).is_empty());
}

#[test]
fn faultpoint_fixture_fires_per_missing_site() {
    let diags = lint(&ws(
        "crates/service/src/net.rs",
        include_str!("../fixtures/faultpoint.rs"),
    ));
    // The constructor lost both read-boundary sites; the write sites
    // survive inside it.
    assert_eq!(rule_lines(&diags, FAULTPOINT_COVERAGE), vec![9, 9]);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags[0].message.contains("read.delay"), "{diags:?}");
    assert!(diags[1].message.contains("read.err"), "{diags:?}");
}

#[test]
fn deprecated_fixture_fires_on_the_nontest_caller() {
    let diags = lint(&ws(
        "crates/core/src/counters.rs",
        include_str!("../fixtures/deprecated.rs"),
    ));
    assert_eq!(rule_lines(&diags, NO_DEPRECATED_CALLS), vec![11]);
    assert_eq!(
        diags.len(),
        1,
        "definition span and test caller must be exempt: {diags:?}"
    );
}

#[test]
fn bad_waiver_fixture_fires_and_does_not_suppress() {
    let diags = lint(&ws(
        "crates/service/src/bad.rs",
        include_str!("../fixtures/bad_waiver.rs"),
    ));
    assert_eq!(rule_lines(&diags, BAD_WAIVER), vec![7, 11]);
    // The reason-less waiver must not have suppressed the unwrap below it.
    assert_eq!(rule_lines(&diags, NO_PANIC_IN_SERVING), vec![8]);
    assert_eq!(diags.len(), 3, "{diags:?}");
}

#[test]
fn a_reasoned_waiver_suppresses_the_line_below() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n    // lint:allow(no-panic-in-serving): fixture — audited\n    x.unwrap()\n}\n";
    let diags = lint(&ws("crates/service/src/bad.rs", src));
    assert!(diags.is_empty(), "{diags:?}");
}
