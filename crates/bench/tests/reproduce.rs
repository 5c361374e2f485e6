//! The `reproduce` binary end to end: a record written under `--out`
//! starts with the command that wrote it, nothing is written into the
//! committed `data/`, and an unknown experiment or flag exits 2 with the
//! usage.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("run reproduce")
}

/// Every file under `dir` with its bytes, in path order.
fn snapshot(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("list the directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            files.extend(snapshot(&path));
        } else {
            let bytes = std::fs::read(&path).expect("read a file");
            files.push((path, bytes));
        }
    }
    files.sort();
    files
}

#[test]
fn a_record_starts_with_its_command_and_data_stays_untouched() {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data");
    let before = snapshot(&data);
    let out = std::env::temp_dir().join(format!("reproduce-table1-{}", std::process::id()));
    let out_arg = out.to_str().expect("a UTF-8 temp path");

    let run = reproduce(&["table1", "--out", out_arg]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let record = std::fs::read_to_string(out.join("table1_output.txt")).expect("read the record");
    let (command, body) = record.split_once('\n').expect("a command line");
    assert_eq!(command, format!("reproduce table1 --out {out_arg}"));
    assert_eq!(body.as_bytes(), run.stdout, "the record is what it printed");
    assert!(body.starts_with("TABLE I"), "{body}");
    std::fs::remove_dir_all(&out).expect("remove the scratch record");

    assert!(snapshot(&data) == before, "reproduce wrote under data/");
}

#[test]
fn unknown_experiments_and_flags_exit_2_with_the_usage() {
    for args in [
        &[][..],
        &["fig5"],
        &["table1", "--nope"],
        &["all", "--csv", "x"],
    ] {
        let run = reproduce(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}");
        let usage = String::from_utf8_lossy(&run.stderr);
        for name in [
            "table1",
            "fig4 [--paper-lmem] [--weighted]",
            "ablation_strategies",
            "sweep",
        ] {
            assert!(usage.contains(name), "{args:?}: {usage}");
        }
    }
}
