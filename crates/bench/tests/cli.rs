//! Malformed arguments end in a typed exit, never a panic: each bad input
//! below must make its binary exit 2, naming the argument, before it runs
//! any migration.

use std::process::Command;

/// Runs binary `exe` with `args` in a temporary directory, so a run that
/// wrongly gets as far as writing a document leaves nothing in the source
/// tree.
fn run(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Asserts that `exe args` exits 2 without panicking and that its message
/// contains every string in `named`.
fn assert_rejected(exe: &str, args: &[&str], named: &[&str]) {
    let (code, stderr) = run(exe, args);
    assert!(
        !stderr.contains("panicked"),
        "{exe} {args:?} panicked:\n{stderr}"
    );
    assert_eq!(code, Some(2), "{exe} {args:?} exit status:\n{stderr}");
    for name in named {
        assert!(
            stderr.contains(name),
            "{exe} {args:?} must name {name}:\n{stderr}"
        );
    }
}

#[test]
fn malformed_flags_exit_2_without_panicking() {
    let cases: [&[&str]; 14] = [
        &["fleet", "--seed", "abc"],
        &["fleet", "--series-cap", "many"],
        &["fleet", "--series-cap", "0"],
        &["evacuate", "--seed", "-3"],
        &["evacuate", "--pin-placement", "first"],
        &["evacuate", "--pin-placement", "99"],
        &["cold", "--delta-cache", "0"],
        &["cold", "--delta-cache", "lots"],
        &["cold", "--delta-cache"],
        &["cold", "--delta-cahce", "0"],
        &["cold", "--cold-fraction", "1.5"],
        &["cold", "--cold-fraction", "0.3,NaN"],
        &["cold", "--warmup-secs", "-1"],
        &["digest", "--scan-slowdown", "fast"],
    ];
    for args in cases {
        assert_rejected(env!("CARGO_BIN_EXE_bench"), args, &[args[1]]);
    }
}

#[test]
fn calibrate_and_fault_matrix_reject_bad_input() {
    let calibrate = env!("CARGO_BIN_EXE_calibrate");
    // The rejection names the bad workload and lists the ones that exist.
    assert_rejected(calibrate, &["nosuch"], &["nosuch", "derby, compiler"]);
    assert_rejected(calibrate, &["derby", "soon"], &["warmup_secs"]);
    assert_rejected(calibrate, &["derby", "1", "0"], &["young_max_mb"]);
    assert_rejected(calibrate, &["derby", "1", "64", "fast"], &["mbps"]);

    let fault_matrix = env!("CARGO_BIN_EXE_fault-matrix");
    assert_rejected(fault_matrix, &["--guard-secs", "abc"], &["--guard-secs"]);
    assert_rejected(fault_matrix, &["--guard-secs"], &["--guard-secs"]);
    assert_rejected(fault_matrix, &["--gaurd-secs", "5"], &["--gaurd-secs"]);
}

#[test]
fn figures_rejects_unknown_targets_and_flags() {
    let figures = env!("CARGO_BIN_EXE_figures");
    assert_rejected(figures, &["--quick", "fig100"], &["fig100", "fig10, fig11"]);
    assert_rejected(figures, &["--quik", "table1"], &["--quik"]);
    assert_rejected(figures, &["--quick", "table1", "--trace"], &["--trace"]);
}
