//! The smoke binaries reject arguments they do not know.
//!
//! A misspelt or removed flag must not fall back to a default run that exits
//! 0: each case below exits non-zero before any leg runs, so none of them
//! compiles a plan or replays a trace.

use std::process::Command;

const SERVE_SMOKE: &str = env!("CARGO_BIN_EXE_serve_smoke");
const PERF_SMOKE: &str = env!("CARGO_BIN_EXE_perf_smoke");

#[test]
fn the_smokes_exit_non_zero_on_an_unknown_removed_or_valueless_flag() {
    // Each case: the binary, its arguments, and the one the error names.
    let cases: [(&str, &[&str], &str); 4] = [
        (SERVE_SMOKE, &["--mdoe", "fleet"], "--mdoe"),
        (SERVE_SMOKE, &["--check-regression"], "--check-regression"),
        (SERVE_SMOKE, &["--mode"], "--mode"),
        (PERF_SMOKE, &["--label", "x"], "--label"),
    ];
    for (binary, args, named) in cases {
        let output = Command::new(binary)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("{binary} does not start: {e}"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            !output.status.success(),
            "{binary} {args:?} exited with {}",
            output.status
        );
        assert!(
            stderr.contains(named),
            "{binary} {args:?}: the error does not name {named}: {stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "{binary} {args:?} ran before rejecting its arguments"
        );
    }
}
