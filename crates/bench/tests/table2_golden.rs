//! Tier-1 gate on Table 2.
//!
//! Runs the `table2_hr_reduction` binary, which rewrites
//! `experiments/table2_hr_reduction.json`, and compares that dump byte for
//! byte with `tests/goldens/table2_hr_reduction.json`.  Table 2 trains both
//! QAT recipes (baseline and LHR) on the offline operators of all six zoo
//! models and applies WDS on top, so the golden pins every QAT output a
//! kernel change could move.  `golden_experiments.rs` pins the other six
//! dumps the same way.

mod common;

use common::{dump_matches_golden, TABLE2};

#[test]
fn table2_dump_matches_its_golden() {
    assert!(
        dump_matches_golden(TABLE2, env!("CARGO_BIN_EXE_table2_hr_reduction")),
        "experiments/table2_hr_reduction.json drifted from its golden; a QAT, \
         WDS or zoo change moved Table 2"
    );
}
