//! End-to-end tests of the `pmerge` binary.

use std::process::Command;

fn pmerge(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pmerge"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = pmerge(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("simulate"));
}

#[test]
fn no_command_prints_usage() {
    let (ok, stdout, _) = pmerge(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn unknown_command_fails_with_message() {
    let (ok, _, stderr) = pmerge(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn simulate_small_scenario() {
    let (ok, stdout, stderr) = pmerge(&[
        "simulate", "--runs", "4", "--blocks", "30", "--disks", "2", "--n", "3", "--trials", "2",
        "--seed", "5",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("total time"));
    assert!(stdout.contains("I/O concurrency"));
}

#[test]
fn simulate_is_reproducible() {
    let args = [
        "simulate", "--runs", "4", "--blocks", "30", "--disks", "2", "--n", "3", "--trials", "2",
        "--seed", "5",
    ];
    let (_, a, _) = pmerge(&args);
    let (_, b, _) = pmerge(&args);
    assert_eq!(a, b);
}

#[test]
fn analyze_prints_equations() {
    let (ok, stdout, _) = pmerge(&["analyze", "--runs", "25", "--disks", "5", "--n", "10"]);
    assert!(ok);
    assert!(stdout.contains("eq5"));
    assert!(stdout.contains("urn-game"));
}

#[test]
fn sweep_produces_table_and_plot() {
    let (ok, stdout, stderr) = pmerge(&[
        "sweep", "--param", "n", "--from", "1", "--to", "3", "--step", "1", "--runs", "4",
        "--blocks", "20", "--disks", "2", "--strategy", "intra", "--trials", "1",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("total time vs n"));
    assert!(stdout.contains("total (s)"));
}

#[test]
fn invalid_option_is_rejected() {
    let (ok, _, stderr) = pmerge(&["simulate", "--bogus", "1"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option"));
}

#[test]
fn invalid_scenario_is_rejected() {
    let (ok, _, stderr) = pmerge(&["simulate", "--cache", "1"]);
    assert!(!ok);
    assert!(stderr.contains("cache"));
}

#[test]
fn striped_layout_flag_works() {
    let (ok, stdout, stderr) = pmerge(&[
        "simulate", "--runs", "4", "--blocks", "40", "--disks", "2", "--strategy", "intra",
        "--n", "4", "--layout", "striped", "--trials", "1",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("total time"));
}

#[test]
fn exec_memory_backend_end_to_end() {
    let (ok, stdout, stderr) = pmerge(&[
        "exec", "--records", "4000", "--memory", "800", "--disks", "2", "--n", "2",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("verified: 4000 records"));
    assert!(stdout.contains("sim cross-check"));
}

#[test]
fn exec_file_backend_end_to_end() {
    let (ok, stdout, stderr) = pmerge(&[
        "exec", "--backend", "file", "--records", "4000", "--memory", "800", "--disks", "2",
        "--n", "2", "--jobs", "2",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("verified: 4000 records"));
}

#[test]
fn exec_latency_backend_cross_checks_and_writes_manifest() {
    let manifest = std::env::temp_dir().join("pmerge-e2e-exec.jsonl");
    let m = manifest.to_str().unwrap().to_string();
    let (ok, stdout, stderr) = pmerge(&[
        "exec", "--backend", "latency", "--records", "4000", "--memory", "800", "--disks", "2",
        "--n", "2", "--time-scale", "0.0005", "--manifest-out", &m,
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("ratio 1.0000) -> pass"), "{stdout}");
    let contents = std::fs::read_to_string(&manifest).unwrap();
    assert!(contents.contains("\"kind\":\"exec\""));
    let _ = std::fs::remove_file(manifest);
}

#[test]
fn exec_rejects_unknown_backend() {
    let (ok, _, stderr) = pmerge(&["exec", "--backend", "tape"]);
    assert!(!ok);
    assert!(stderr.contains("unknown backend"));
}

#[test]
fn passes_bounds_the_fan_in_for_plan_and_exec() {
    // Both commands reject a fan-in and a pass count given together.
    for (command, population) in [
        ("plan", ["--runs", "64", "--blocks", "10"]),
        ("exec", ["--records", "6400", "--memory", "100"]),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pmerge"))
            .arg(command)
            .args(population)
            .args(["--fan-in", "8", "--passes", "2"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command}: {stderr}");
        assert!(stderr.contains("mutually exclusive"), "{command}: {stderr}");
    }
    // 64 runs in two passes need fan-in 8.
    let (ok, stdout, stderr) = pmerge(&["plan", "--runs", "64", "--blocks", "10", "--passes", "2"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("64 runs (640 blocks total), fan-in cap 8,"), "{stdout}");
    // A two-pass merge of 64 runs writes the same bytes as one pass.
    let dir = std::env::temp_dir();
    let single = dir.join(format!("pmerge-e2e-passes-1-{}.bin", std::process::id()));
    let double = dir.join(format!("pmerge-e2e-passes-2-{}.bin", std::process::id()));
    let run = ["exec", "--records", "6400", "--memory", "100", "--out"];
    let (ok, _, stderr) = pmerge(&[&run[..], &[single.to_str().unwrap()]].concat());
    assert!(ok, "stderr: {stderr}");
    let (ok, stdout, stderr) =
        pmerge(&[&run[..], &[double.to_str().unwrap(), "--passes", "2"]].concat());
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("fan-in 8 (cap 8), 2 passes"), "{stdout}");
    let (a, b) = (std::fs::read(&single).unwrap(), std::fs::read(&double).unwrap());
    let _ = std::fs::remove_file(single);
    let _ = std::fs::remove_file(double);
    assert_eq!(a.len(), 6400 * 16);
    assert!(a == b, "two-pass output differs from the single pass");
}

#[test]
fn batch_command_end_to_end() {
    let path = std::env::temp_dir().join("pmerge-e2e-batch.txt");
    std::fs::write(
        &path,
        "# comparison\nbaseline: runs=4 blocks=20 disks=1 strategy=none\nfast: runs=4 blocks=20 disks=2 strategy=inter n=2 cache=40\n",
    )
    .unwrap();
    let (ok, stdout, stderr) = pmerge(&["batch", "--file", path.to_str().unwrap(), "--trials", "1"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("baseline"));
    assert!(stdout.contains("fast"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn removed_queue_alias_is_an_unknown_option() {
    for command in ["exec", "serve"] {
        let out = Command::new(env!("CARGO_BIN_EXE_pmerge"))
            .args([command, "--queue", "4"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command}: {stderr}");
        assert!(stderr.contains("unknown option --queue"), "{command}: {stderr}");
    }
}

/// Runs `pmerge serve` on a one-tenant scenario file that sets `field` to
/// zero, and returns the exit code and standard error.
fn serve_with_zero(field: &str) -> (Option<i32>, String) {
    let path = std::env::temp_dir().join(format!("pmerge-e2e-serve-zero-{field}.json"));
    std::fs::write(
        &path,
        format!(r#"{{"disks": 2, "tenants": [{{"name": "solo", "{field}": 0}}]}}"#),
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pmerge"))
        .args(["serve", "--scenario-file", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_file(path);
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn serve_rejects_tenant_with_zero_memory() {
    let (code, stderr) = serve_with_zero("memory");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("tenant 'solo': 'memory' must be positive"), "{stderr}");
}

#[test]
fn serve_rejects_tenant_with_zero_records() {
    let (code, stderr) = serve_with_zero("records");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("tenant 'solo': 'records' must be positive"), "{stderr}");
}
