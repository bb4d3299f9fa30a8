//! Golden snapshots of `pmerge plan` and end-to-end multi-pass `exec`.
//!
//! The snapshot files live in `tests/golden/`; refresh them after an
//! intentional output change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p pm-cli --test golden_plan
//! ```

use std::path::PathBuf;
use std::process::Command;

fn pmerge(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pmerge"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `pmerge <args>` stdout against `tests/golden/<name>`,
/// rewriting the snapshot instead when `UPDATE_GOLDEN=1`.
fn check_golden(name: &str, args: &[&str]) {
    let (code, stdout, stderr) = pmerge(args);
    assert_eq!(code, Some(0), "pmerge {args:?} failed: {stderr}");
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &stdout).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        stdout,
        want,
        "pmerge {args:?} diverged from {}; run with UPDATE_GOLDEN=1 to refresh",
        path.display()
    );
}

#[test]
fn plan_two_pass_uniform_tree() {
    // k=64 at fan-in 8: a perfect two-pass tree, both policies agree on
    // the width.
    check_golden(
        "plan_k64_f8.txt",
        &[
            "plan",
            "--runs",
            "64",
            "--blocks",
            "50",
            "--disks",
            "4",
            "--strategy",
            "inter",
            "--n",
            "4",
            "--fan-in",
            "8",
        ],
    );
}

#[test]
fn plan_policy_divergence() {
    // k=9 at fan-in 8: greedy-max degenerates (8+1 then a near-total
    // 2-way pass), balanced plans 3-way merges throughout.
    check_golden(
        "plan_k9_f8.txt",
        &[
            "plan",
            "--runs",
            "9",
            "--blocks",
            "50",
            "--disks",
            "4",
            "--strategy",
            "inter",
            "--n",
            "4",
            "--fan-in",
            "8",
        ],
    );
}

#[test]
fn plan_trivial_single_pass_json() {
    // k <= F: one pass, one group, machine-readable.
    check_golden(
        "plan_trivial.json",
        &[
            "plan",
            "--runs",
            "4",
            "--blocks",
            "50",
            "--disks",
            "4",
            "--strategy",
            "inter",
            "--n",
            "4",
            "--fan-in",
            "8",
            "--plan-policy",
            "greedy-max",
            "--json",
        ],
    );
}

#[test]
fn exec_overwide_merge_exits_2_and_points_at_plan() {
    // 16 runs into a cache that only fans 8 ways: a configuration error
    // (exit 2) whose message names both commands of the escape hatch.
    let (code, _, stderr) = pmerge(&[
        "exec",
        "--records",
        "4000",
        "--memory",
        "250",
        "--cache",
        "32",
        "--disks",
        "2",
        "--strategy",
        "inter",
        "--n",
        "4",
    ]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("16 runs exceed the cache-supported fan-in of 8"),
        "{stderr}"
    );
    assert!(stderr.contains("pmerge plan"), "{stderr}");
    assert!(stderr.contains("--fan-in"), "{stderr}");
}

#[test]
fn exec_multipass_output_is_byte_identical_to_single_pass() {
    let dir = std::env::temp_dir().join(format!("pmerge-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let single = dir.join("single.bin");
    let multi = dir.join("multi.bin");
    let manifest = dir.join("multi.jsonl");

    let base = [
        "exec",
        "--records",
        "4000",
        "--memory",
        "250",
        "--disks",
        "2",
        "--strategy",
        "inter",
        "--n",
        "2",
        "--seed",
        "7",
    ];
    let mut single_args: Vec<&str> = base.to_vec();
    let single_path = single.to_str().unwrap();
    single_args.extend(["--out", single_path]);
    let (code, _, stderr) = pmerge(&single_args);
    assert_eq!(code, Some(0), "single-pass failed: {stderr}");

    let mut multi_args: Vec<&str> = base.to_vec();
    let multi_path = multi.to_str().unwrap();
    let manifest_path = manifest.to_str().unwrap();
    multi_args.extend([
        "--fan-in",
        "4",
        "--plan-policy",
        "balanced",
        "--out",
        multi_path,
        "--manifest-out",
        manifest_path,
    ]);
    let (code, stdout, stderr) = pmerge(&multi_args);
    assert_eq!(code, Some(0), "multi-pass failed: {stderr}");
    assert!(stdout.contains("2 passes"), "{stdout}");
    assert!(stdout.contains("multiset-identical"), "{stdout}");

    let a = std::fs::read(&single).unwrap();
    let b = std::fs::read(&multi).unwrap();
    assert!(!a.is_empty());
    assert_eq!(a, b, "multi-pass output differs from single-pass");

    // The manifest carries one v2 record per pass plus a summary.
    let lines: Vec<String> = std::fs::read_to_string(&manifest)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(lines.len(), 3, "expected 2 pass records + 1 summary");
    assert!(lines[0].contains("\"pass\":1"), "{}", lines[0]);
    assert!(lines[1].contains("\"pass\":2"), "{}", lines[1]);
    assert!(lines[2].contains("\"pass\":null"), "{}", lines[2]);

    let _ = std::fs::remove_dir_all(&dir);
}
