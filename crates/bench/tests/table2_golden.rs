//! Tier-1 gate on Table 2.
//!
//! Runs the `table2_hr_reduction` binary, which rewrites
//! `experiments/table2_hr_reduction.json`, and compares that dump byte for
//! byte with `tests/goldens/table2_hr_reduction.json`.  Table 2 trains both
//! QAT recipes (baseline and LHR) on the offline operators of all six zoo
//! models and applies WDS on top, so the golden pins every QAT output a
//! kernel change could move.  The root crate's `golden_experiments` test
//! compares the other six dumps only once their binaries have run.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Stdio};

#[test]
fn table2_dump_matches_its_golden() {
    let status = Command::new(env!("CARGO_BIN_EXE_table2_hr_reduction"))
        .stdout(Stdio::null())
        .status()
        .expect("the table2_hr_reduction binary starts");
    assert!(status.success(), "table2_hr_reduction exited with {status}");
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |path: PathBuf| {
        fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
    };
    let dump = read(root.join("experiments/table2_hr_reduction.json"));
    let golden = read(root.join("tests/goldens/table2_hr_reduction.json"));
    assert!(
        dump == golden,
        "experiments/table2_hr_reduction.json drifted from its golden; a QAT, \
         WDS or zoo change moved Table 2"
    );
}
