//! `legion-exp` rejects what it does not know at parse time: an unknown
//! experiment id or flag exits 2, names the argument and lists the valid
//! ids, and no experiment runs first.

use std::process::{Command, Output};

fn legion_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_legion-exp"))
        .args(args)
        .output()
        .expect("spawn legion-exp")
}

fn assert_rejected(args: &[&str], bad: &str) {
    let out = legion_exp(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(&format!("`{bad}`")), "{args:?}: {stderr}");
    assert!(stderr.contains("all e1 e2"), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} ran something before failing"
    );
}

#[test]
fn unknown_experiment_ids_exit_2() {
    assert_rejected(&["e99"], "e99");
    assert_rejected(&["--quick", "E99"], "E99");
}

#[test]
fn unknown_flags_exit_2() {
    assert_rejected(&["--bogus"], "--bogus");
    assert_rejected(&["--seed", "5", "e99"], "--seed");
}

#[test]
fn retired_e14_exits_2() {
    assert_rejected(&["e14"], "e14");
    assert_rejected(&["--quick", "E014"], "E014");
}

#[test]
fn a_bad_id_after_a_good_one_runs_nothing() {
    assert_rejected(&["--quick", "e1", "e99"], "e99");
}

#[test]
fn help_exits_0() {
    let out = legion_exp(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: legion-exp"));
}
