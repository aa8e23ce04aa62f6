//! Contract of the `reproduce` binary: a misspelt subcommand or flag must
//! fail loudly (exit 2, usage on stderr) instead of running nothing and
//! reporting success, and the five tables that are pure model output must
//! print byte-for-byte what `tests/golden/` holds — Table 2 from the
//! software trees' memory model and the hardware layouts, Tables 3 and 8
//! from the builders' `BuildStats` and the structures' worst-case access
//! bounds,
//! Tables 6 and 7 from the SA-1100 operation mixes and the cycles the
//! accelerator model counts over 20,000 packets per ruleset.  A refactor
//! that claims "no output changed" is held to it here, not by a hand-run
//! `cmp`.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce binary runs")
}

#[test]
fn unknown_subcommands_and_flags_exit_2_with_usage() {
    for args in [&["tabel4"][..], &["table2", "--quik"], &["--fast"]] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must run nothing");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
        assert!(stderr.contains("table4"), "usage lists the subcommands");
    }
}

#[test]
fn known_subcommand_runs_and_exits_0() {
    let out = reproduce(&["figures", "--quick"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Figure 1"));
}

#[test]
fn deterministic_tables_match_their_golden_files() {
    for (table, golden) in [
        ("table2", include_str!("golden/table2.txt")),
        ("table3", include_str!("golden/table3.txt")),
        ("table6", include_str!("golden/table6.txt")),
        ("table7", include_str!("golden/table7.txt")),
        ("table8", include_str!("golden/table8.txt")),
    ] {
        let out = reproduce(&[table]);
        assert!(out.status.success(), "{table}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            golden,
            "{table} drifted from crates/bench/tests/golden/{table}.txt"
        );
    }
}
