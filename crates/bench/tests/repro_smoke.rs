//! Smoke tests for the `repro` binary's dispatch: a named experiment runs
//! to completion, and an unknown name is refused. What the experiments
//! compute is asserted on the library's rows, in the other test files.

use std::process::Command;

#[test]
fn fast_experiments_run() {
    for experiment in ["fig6", "ex41", "ex37", "hybrid"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(experiment)
            .output()
            .expect("repro runs");
        assert!(
            out.status.success(),
            "repro {experiment} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stdout.is_empty(), "repro {experiment} printed nothing");
    }
}

#[test]
fn unknown_experiment_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig99")
        .output()
        .expect("repro runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
}
