//! Shared by the golden-file tests: run one experiment binary and
//! byte-compare the dump it writes with its committed golden.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// The Table 2 dump, pinned by `table2_golden.rs`; `golden_experiments.rs`
/// pins the other six.
pub const TABLE2: &str = "table2_hr_reduction";

pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `binary`, which rewrites `experiments/<name>.json`, and reports
/// whether that dump equals `tests/goldens/<name>.json` byte for byte.
pub fn dump_matches_golden(name: &str, binary: &str) -> bool {
    let status = Command::new(binary)
        .stdout(Stdio::null())
        .status()
        .unwrap_or_else(|e| panic!("the {name} binary does not start: {e}"));
    assert!(status.success(), "{name} exited with {status}");
    let root = repo_root();
    let read = |path: PathBuf| {
        fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
    };
    read(root.join("experiments").join(format!("{name}.json")))
        == read(root.join("tests/goldens").join(format!("{name}.json")))
}
