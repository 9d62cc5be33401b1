//! Integration tests for the `mq` command-line binary: exercises the
//! text database loader, the metaquery parser, both engines, and the
//! exit-code contract through the real executable.

use std::io::Write;
use std::process::Command;

fn mq_bin() -> &'static str {
    env!("CARGO_BIN_EXE_mq")
}

fn write_db(content: &str) -> tempfile::TempPath {
    let mut f = tempfile::NamedTempFile::new().expect("tempfile");
    f.write_all(content.as_bytes()).unwrap();
    f.into_temp_path()
}

mod tempfile {
    //! Minimal tempfile substitute (no external crate): unique file in
    //! std::env::temp_dir, deleted on drop.
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    pub struct NamedTempFile {
        file: std::fs::File,
        path: PathBuf,
    }

    pub struct TempPath(PathBuf);

    impl NamedTempFile {
        pub fn new() -> std::io::Result<Self> {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("mq-cli-test-{}-{n}.db", std::process::id()));
            let file = std::fs::File::create(&path)?;
            Ok(NamedTempFile { file, path })
        }

        pub fn into_temp_path(self) -> TempPath {
            TempPath(self.path)
        }
    }

    impl std::io::Write for NamedTempFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.file.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.file.flush()
        }
    }

    impl std::ops::Deref for TempPath {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

const DEMO: &str = "parent(1, 2)\nparent(2, 3)\ngrand(1, 3)\n";

#[test]
fn mine_finds_the_rule() {
    let db = write_db(DEMO);
    let out = Command::new(mq_bin())
        .args([
            "mine",
            "--db",
            db.to_str().unwrap(),
            "--metaquery",
            "R(X,Z) <- P(X,Y), Q(Y,Z)",
            "--cnf",
            "0.5",
        ])
        .output()
        .expect("run mq");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("grand(X,Z) <- parent(X,Y), parent(Y,Z)"));
    assert!(stdout.contains("cnf=1"));
}

#[test]
fn mine_engines_agree_via_cli() {
    let db = write_db(DEMO);
    let run = |engine: &str| {
        let out = Command::new(mq_bin())
            .args([
                "mine",
                "--db",
                db.to_str().unwrap(),
                "--metaquery",
                "R(X,Z) <- P(X,Y), Q(Y,Z)",
                "--sup",
                "0",
                "--engine",
                engine,
            ])
            .output()
            .expect("run mq");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    assert_eq!(run("findrules"), run("naive"));
}

#[test]
fn decide_exit_codes() {
    let db = write_db(DEMO);
    let decide = |k: &str| {
        Command::new(mq_bin())
            .args([
                "decide",
                "--db",
                db.to_str().unwrap(),
                "--metaquery",
                "R(X,Z) <- P(X,Y), Q(Y,Z)",
                "--index",
                "cnf",
                "--k",
                k,
            ])
            .output()
            .expect("run mq")
    };
    let yes = decide("1/2");
    assert_eq!(yes.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&yes.stdout).contains("YES"));
    // Nothing exceeds 1 strictly.
    let no = decide("1");
    assert_eq!(no.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&no.stdout).contains("NO"));
}

#[test]
fn classify_reports_structure() {
    let out = Command::new(mq_bin())
        .args(["classify", "--metaquery", "P(X,Y) <- P(Y,Z), Q(Z,W)"])
        .output()
        .expect("run mq");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Acyclic"));
    assert!(stdout.contains("hypertree width 1"));
}

#[test]
fn classify_rejects_a_body_beyond_the_mask() {
    let mq = metaquery::datagen::metaqueries::chain(65).to_string();
    let out = Command::new(mq_bin())
        .args(["classify", "--metaquery", &mq])
        .output()
        .expect("run mq");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: body has 65 literals over 66 variables"),
        "got: {stderr}"
    );
}

#[test]
fn stats_reports_parameters() {
    let db = write_db(DEMO);
    let out = Command::new(mq_bin())
        .args(["stats", "--db", db.to_str().unwrap()])
        .output()
        .expect("run mq");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 relations, 3 tuples"));
    assert!(stdout.contains("parent/2: 2 tuples"));
}

#[test]
fn bad_inputs_fail_cleanly() {
    let db = write_db("parent(1, 2)\nparent(1)\n"); // arity clash
    let out = Command::new(mq_bin())
        .args([
            "mine",
            "--db",
            db.to_str().unwrap(),
            "--metaquery",
            "R(X) <- P(X)",
        ])
        .output()
        .expect("run mq");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("arity"));

    let db = write_db(DEMO);
    let out = Command::new(mq_bin())
        .args([
            "mine",
            "--db",
            db.to_str().unwrap(),
            "--metaquery",
            "R(X,Z) <-",
        ])
        .output()
        .expect("run mq");
    assert!(!out.status.success());
}

#[test]
fn negation_through_the_cli() {
    let db = write_db("p(1, 2)\np(2, 3)\nblocked(1, 2)\nlinkable(2, 3)\n");
    let out = Command::new(mq_bin())
        .args([
            "mine",
            "--db",
            db.to_str().unwrap(),
            "--metaquery",
            "L(X,Y) <- P(X,Y), not B(X,Y)",
            "--cnf",
            "0.99",
        ])
        .output()
        .expect("run mq");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("linkable(X,Y) <- p(X,Y), not blocked(X,Y)"),
        "stdout: {stdout}"
    );
}
