//! `annot_serve`'s flag parser, driven through the real binary: `--help`
//! lists every flag the module doc lists, and a bad command line exits 2
//! with a message naming the problem.

use std::collections::BTreeSet;
use std::process::{Command, Output};

fn annot_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_annot_serve"))
        .args(args)
        .output()
        .expect("annot_serve runs")
}

#[test]
fn help_lists_every_documented_flag() {
    let flags: BTreeSet<&str> = include_str!("../src/bin/annot_serve.rs")
        .lines()
        .filter_map(|line| line.strip_prefix("//!"))
        .flat_map(|doc| doc.split(|c: char| c != '-' && !c.is_ascii_alphanumeric()))
        .filter(|word| word.starts_with("--") && word.len() > 2)
        .collect();
    assert!(flags.contains("--workers"), "doc flags: {flags:?}");
    let out = annot_serve(&["--help"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let usage = String::from_utf8_lossy(&out.stdout);
    for flag in flags {
        assert!(usage.contains(&format!("[{flag} ")), "{flag}: {usage}");
    }
}

#[test]
fn an_unknown_flag_is_refused() {
    let out = annot_serve(&["--cache-ttl", "5"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn a_non_numeric_flag_value_is_refused() {
    let out = annot_serve(&["--byte-budget", "x"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a number"));
}
