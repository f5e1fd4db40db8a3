//! Malformed `bench` flags end in a typed exit, never a panic: each bad
//! value below must make the binary exit 2, naming the flag, before it
//! runs any migration.

use std::process::Command;

/// Runs `bench` with `args` in a temporary directory, so a run that wrongly
/// gets as far as writing a document leaves nothing in the source tree.
fn bench(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("bench binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_flags_exit_2_without_panicking() {
    let cases: [&[&str]; 12] = [
        &["fleet", "--seed", "abc"],
        &["fleet", "--series-cap", "many"],
        &["fleet", "--series-cap", "0"],
        &["evacuate", "--seed", "-3"],
        &["evacuate", "--pin-placement", "first"],
        &["evacuate", "--pin-placement", "99"],
        &["cold", "--delta-cache", "0"],
        &["cold", "--delta-cache", "lots"],
        &["cold", "--cold-fraction", "1.5"],
        &["cold", "--cold-fraction", "0.3,NaN"],
        &["cold", "--warmup-secs", "-1"],
        &["digest", "--scan-slowdown", "fast"],
    ];
    for args in cases {
        let (code, stderr) = bench(args);
        assert!(
            !stderr.contains("panicked"),
            "bench {args:?} panicked:\n{stderr}"
        );
        assert_eq!(code, Some(2), "bench {args:?} exit status:\n{stderr}");
        let flag = args[1];
        assert!(
            stderr.contains(flag),
            "bench {args:?} must name {flag}:\n{stderr}"
        );
    }
}
