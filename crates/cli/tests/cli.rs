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
        "sweep",
        "--param",
        "n",
        "--from",
        "1",
        "--to",
        "3",
        "--step",
        "1",
        "--runs",
        "4",
        "--blocks",
        "20",
        "--disks",
        "2",
        "--strategy",
        "intra",
        "--trials",
        "1",
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
fn disk_counts_beyond_the_disk_id_width_exit_2() {
    for args in [
        ["--disks", "65536", "--runs", "65536", "--blocks", "1"],
        ["--write-disks", "65536", "--runs", "2", "--blocks", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pmerge"))
            .arg("simulate")
            .args(args)
            .args(["--trials", "1"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("exceed the limit of 65535"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn striped_layout_flag_works() {
    let (ok, stdout, stderr) = pmerge(&[
        "simulate",
        "--runs",
        "4",
        "--blocks",
        "40",
        "--disks",
        "2",
        "--strategy",
        "intra",
        "--n",
        "4",
        "--layout",
        "striped",
        "--trials",
        "1",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("total time"));
}

#[test]
fn exec_memory_backend_end_to_end() {
    let (ok, stdout, stderr) = pmerge(&[
        "exec",
        "--records",
        "4000",
        "--memory",
        "800",
        "--disks",
        "2",
        "--n",
        "2",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("verified: 4000 records"));
    assert!(stdout.contains("sim cross-check"));
}

#[test]
fn exec_file_backend_end_to_end() {
    let (ok, stdout, stderr) = pmerge(&[
        "exec",
        "--backend",
        "file",
        "--records",
        "4000",
        "--memory",
        "800",
        "--disks",
        "2",
        "--n",
        "2",
        "--jobs",
        "2",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("verified: 4000 records"));
}

#[test]
fn exec_latency_backend_cross_checks_and_writes_manifest() {
    let manifest = std::env::temp_dir().join("pmerge-e2e-exec.jsonl");
    let m = manifest.to_str().unwrap().to_string();
    let (ok, stdout, stderr) = pmerge(&[
        "exec",
        "--backend",
        "latency",
        "--records",
        "4000",
        "--memory",
        "800",
        "--disks",
        "2",
        "--n",
        "2",
        "--time-scale",
        "0.0005",
        "--manifest-out",
        &m,
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("ratio 1.0000) -> pass"), "{stdout}");
    let contents = std::fs::read_to_string(&manifest).unwrap();
    assert!(contents.contains("\"kind\":\"exec\""));
    let _ = std::fs::remove_file(manifest);
}

/// Head-proximity scores candidates against a head position the engine
/// and the simulator track differently, so its request sequences may
/// diverge: `exec` reports how many matched and succeeds, single-pass
/// and multi-pass. The same input under another prefetch choice keeps
/// the exact check.
#[test]
fn exec_reports_head_proximity_divergence_and_keeps_the_exact_check_otherwise() {
    let shape = ["exec", "--records", "12000", "--memory", "1500"];
    for extra in [&[][..], &["--fan-in", "4"][..]] {
        let args = [&shape[..], extra, &["--choice", "head-proximity"]].concat();
        let (ok, stdout, stderr) = pmerge(&args);
        assert!(ok, "{args:?} failed: {stderr}");
        assert!(stdout.contains("verified: 12000 records"), "{stdout}");
        let line = stdout
            .lines()
            .find(|l| l.starts_with("sim cross-check: simulator re-derives "))
            .unwrap_or_else(|| panic!("no cross-check line: {stdout}"));
        let counts: Vec<u64> = line
            .split_whitespace()
            .filter_map(|w| w.parse().ok())
            .take(2)
            .collect();
        assert!(
            line.contains("parity is not exact") && counts[0] < counts[1],
            "{args:?}: {line}"
        );

        let args = [&shape[..], extra, &["--choice", "least-held"]].concat();
        let (ok, stdout, stderr) = pmerge(&args);
        assert!(ok, "{args:?} failed: {stderr}");
        assert!(
            stdout.contains("sim cross-check: simulator re-derives all "),
            "{stdout}"
        );
        assert!(!stdout.contains("not exact"), "{stdout}");
    }
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
    assert!(
        stdout.contains("64 runs (640 blocks total), fan-in cap 8,"),
        "{stdout}"
    );
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
    let (a, b) = (
        std::fs::read(&single).unwrap(),
        std::fs::read(&double).unwrap(),
    );
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
    let (ok, stdout, stderr) =
        pmerge(&["batch", "--file", path.to_str().unwrap(), "--trials", "1"]);
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
        assert!(
            stderr.contains("unknown option --queue"),
            "{command}: {stderr}"
        );
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
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn serve_rejects_tenant_with_zero_memory() {
    let (code, stderr) = serve_with_zero("memory");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("tenant 'solo': 'memory' must be positive"),
        "{stderr}"
    );
}

#[test]
fn serve_rejects_tenant_with_zero_records() {
    let (code, stderr) = serve_with_zero("records");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("tenant 'solo': 'records' must be positive"),
        "{stderr}"
    );
}

/// The commands that parse scenario names, each on a small input.
const NAME_PARSERS: [&[&str]; 3] = [
    &[
        "simulate", "--runs", "4", "--blocks", "20", "--disks", "2", "--n", "2", "--trials", "1",
    ],
    &["exec", "--records", "2000", "--memory", "500", "--n", "2"],
    &[
        "plan", "--runs", "8", "--blocks", "20", "--fan-in", "4", "--n", "2",
    ],
];

#[test]
fn simulate_exec_and_plan_accept_every_scenario_name_and_alias() {
    let names: [(&str, &str); 13] = [
        ("strategy", "none"),
        ("strategy", "intra"),
        ("strategy", "inter"),
        ("strategy", "adaptive"),
        ("admission", "all-or-nothing"),
        ("admission", "aon"),
        ("admission", "greedy"),
        ("choice", "random"),
        ("choice", "least-held"),
        ("choice", "head-proximity"),
        ("layout", "concatenated"),
        ("layout", "concat"),
        ("layout", "striped"),
    ];
    for command in NAME_PARSERS {
        for (flag, name) in names {
            let mut args = command.to_vec();
            let flag = format!("--{flag}");
            args.extend([flag.as_str(), name]);
            if name == "striped" {
                // Inter-run prefetching needs each run on one disk.
                args.extend(["--strategy", "intra"]);
            }
            let out = Command::new(env!("CARGO_BIN_EXE_pmerge"))
                .args(&args)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            // Accepted: the run got past the flags (exit 2 is a usage or
            // configuration error).
            assert_ne!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(!out.stdout.is_empty(), "{args:?}: {stderr}");
        }
    }
}

#[test]
fn simulate_exec_and_plan_reject_an_unknown_name_alike() {
    for (flag, message) in [
        ("strategy", "error: unknown strategy 'bogus'"),
        ("admission", "error: unknown admission policy 'bogus'"),
        ("choice", "error: unknown prefetch choice 'bogus'"),
        ("layout", "error: unknown layout 'bogus'"),
    ] {
        for command in NAME_PARSERS {
            let mut args = command.to_vec();
            let flag = format!("--{flag}");
            args.extend([flag.as_str(), "bogus"]);
            let out = Command::new(env!("CARGO_BIN_EXE_pmerge"))
                .args(&args)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            assert_eq!(stderr.lines().next(), Some(message), "{args:?}");
        }
    }
}

#[test]
fn a_closed_stdout_ends_pmerge_quietly() {
    for args in [
        &["plan", "--runs", "64", "--blocks", "10", "--passes", "2"][..],
        &[
            "exec",
            "--records",
            "20000",
            "--memory",
            "500",
            "--passes",
            "2",
        ],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pmerge"))
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        // The reader goes away before pmerge prints anything.
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// A reader that stops early costs no file a command was asked to write:
/// `exec`, `serve` and `contend` with a closed stdout still write every
/// export, and exit 0.
#[test]
fn a_closed_stdout_still_writes_every_export() {
    let dir = temp_path("closed-stdout");
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    std::fs::write(
        file("jobs.json"),
        r#"{"disks": 3, "cache_blocks": 24000, "tenants": [
            {"name": "etl", "runs": 6, "run_blocks": 60, "n": 4, "priority": 2,
             "records": 900, "memory": 160},
            {"name": "adhoc", "runs": 4, "run_blocks": 50, "strategy": "intra", "n": 3,
             "arrival_ms": 250, "records": 500, "memory": 140}]}"#,
    )
    .unwrap();
    let exports = |command: &str| -> Vec<(&'static str, &'static str)> {
        match command {
            "exec" => vec![
                ("--out", "u.bin"),
                ("--manifest-out", "exec.jsonl"),
                ("--metrics-out", "exec.prom"),
                ("--trace-out", "exec.json"),
            ],
            "serve" => vec![
                ("--manifest-out", "serve.jsonl"),
                ("--metrics-out", "serve.prom"),
            ],
            _ => vec![
                ("--csv", "contend.csv"),
                ("--manifest-out", "contend.jsonl"),
                ("--metrics-out", "contend.prom"),
            ],
        }
    };
    for (command, flags) in [
        (
            "exec",
            vec![
                "--records",
                "20000",
                "--memory",
                "2000",
                "--disks",
                "5",
                "--n",
                "10",
            ],
        ),
        ("serve", vec!["--scenario-file", "jobs.json"]),
        (
            "contend",
            vec!["--tenants", "2", "--disks", "2", "--cache", "24000"],
        ),
    ] {
        let mut args = vec![command.to_string()];
        args.extend(flags.iter().map(|f| {
            if f.ends_with(".json") {
                file(f)
            } else {
                (*f).to_string()
            }
        }));
        for (flag, name) in exports(command) {
            args.extend([flag.to_string(), file(name)]);
        }
        let mut child = Command::new(env!("CARGO_BIN_EXE_pmerge"))
            .args(&args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        // The reader goes away before pmerge prints anything.
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{command}: {stderr}");
        for (_, name) in exports(command) {
            let written = std::fs::metadata(file(name)).map_or(0, |m| m.len());
            assert!(written > 0, "{command} did not write {name}");
        }
    }
    let bytes = std::fs::metadata(file("u.bin")).unwrap().len();
    assert_eq!(bytes, 20000 * 16, "every record of the sort");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A single input run needs no merge pass: the empty sums print `0`, never
/// `-0`, and the whole-tree manifest label counts the one input run.
#[test]
fn a_single_run_sums_to_zero_and_is_labelled_k1() {
    for json in [false, true] {
        let mut args = vec!["plan", "--runs", "1", "--fan-in", "2"];
        if json {
            args.push("--json");
        }
        let (ok, stdout, stderr) = pmerge(&args);
        assert!(ok, "{stderr}");
        assert!(!stdout.contains("-0"), "{stdout}");
        let zero = if json {
            "\"predicted_read_secs\":0,"
        } else {
            "predicted read 0.000 s"
        };
        assert!(stdout.contains(zero), "{stdout}");
    }

    let manifest = std::env::temp_dir().join("pmerge-e2e-single-run.jsonl");
    let m = manifest.to_str().unwrap().to_string();
    let (ok, stdout, stderr) = pmerge(&[
        "exec",
        "--records",
        "100",
        "--memory",
        "100",
        "--fan-in",
        "2",
        "--manifest-out",
        &m,
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains(" 0.000 s wall"), "{stdout}");
    assert!(!stdout.contains("-0"), "{stdout}");
    let contents = std::fs::read_to_string(&manifest).unwrap();
    let _ = std::fs::remove_file(manifest);
    assert!(contents.contains("\"mean_total_secs\":0,"), "{contents}");
    assert!(!contents.contains(":-0"), "{contents}");
    assert!(contents.contains("k=1,"), "{contents}");
}

/// A block too large to allocate is a usage error (exit 2), single-pass
/// and multi-pass, not an allocation abort.
#[test]
fn an_oversized_block_exits_2() {
    let shape = ["exec", "--records", "100", "--memory", "10"];
    for extra in [&[][..], &["--fan-in", "2"][..]] {
        let args = [&shape[..], extra, &["--rpb", "4294967295"]].concat();
        let out = Command::new(env!("CARGO_BIN_EXE_pmerge"))
            .args(&args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("a block over 16777216 bytes"), "{stderr}");
    }
}

/// `--rpb` is checked before any block count is derived from it: zero,
/// or a block over the engine's cap, is a usage error (exit 2) in `plan`
/// and in `exec`, never a division by zero or a plan `exec` refuses.
#[test]
fn a_bad_records_per_block_exits_2() {
    let shape = ["--records", "100", "--memory", "10", "--fan-in", "2"];
    for (cmd, rpb, msg) in [
        ("plan", "0", "--rpb must be positive"),
        ("exec", "0", "--rpb must be positive"),
        ("plan", "4294967295", "a block over 16777216 bytes"),
    ] {
        let args = [&[cmd][..], &shape, &["--rpb", rpb]].concat();
        let out = Command::new(env!("CARGO_BIN_EXE_pmerge"))
            .args(&args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(msg), "{args:?}: {stderr}");
    }
}

/// A one-run `exec` prints the note `plan` prints, not an empty table.
#[test]
fn a_one_run_exec_prints_the_note_not_an_empty_table() {
    let (ok, stdout, stderr) = pmerge(&[
        "exec",
        "--records",
        "100",
        "--memory",
        "100",
        "--fan-in",
        "2",
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("(a single run needs no merging)"),
        "{stdout}"
    );
    assert!(!stdout.contains("merged/groups"), "{stdout}");
    assert!(stdout.contains("0 blocks read across 0 passes"), "{stdout}");
}

/// A unique path under the system temp dir for one test's file.
fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pmerge-e2e-{tag}-{}", std::process::id()))
}

/// Reads and removes a manifest `exec` wrote.
fn read_manifest(path: &std::path::Path) -> Vec<pm_obs::ManifestRecord> {
    let text = std::fs::read_to_string(path).unwrap();
    let _ = std::fs::remove_file(path);
    pm_obs::parse_manifest(&text).unwrap()
}

/// Without `--fan-in` or `--passes`, `exec` runs a one-pass tree whose one
/// merge is the user's scenario as given, and writes the same bytes as a
/// two-pass tree of the same sort.
#[test]
fn a_no_flag_exec_runs_the_users_scenario_verbatim() {
    let manifest = temp_path("verbatim.jsonl");
    let single = temp_path("verbatim-1.bin");
    let double = temp_path("verbatim-2.bin");
    let shape = [
        "exec",
        "--records",
        "6400",
        "--memory",
        "100",
        "--disks",
        "4",
        "--n",
        "2",
        "--seed",
        "4242",
    ];
    let (ok, stdout, stderr) = pmerge(
        &[
            &shape[..],
            &["--out", single.to_str().unwrap()],
            &["--manifest-out", manifest.to_str().unwrap()],
        ]
        .concat(),
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("1 passes"), "{stdout}");
    let records = read_manifest(&manifest);
    assert_eq!(records.len(), 2, "one pass record and the summary");
    let pass = &records[0];
    assert_eq!(pass.pass, Some(1));
    assert_eq!(pass.scenario.seed, 4242);
    assert_eq!(pass.scenario.per_run_cap, None);
    assert_eq!(pass.scenario.strategy.depth(), 2);
    assert_eq!(pass.scenario.runs, 64);
    let summary = &records[1];
    assert_eq!(summary.pass, None);
    assert_eq!(summary.scenario, pass.scenario);
    assert_eq!(
        summary.metrics.mean_success_ratio,
        pass.metrics.mean_success_ratio
    );
    assert!(summary.metrics.mean_success_ratio.is_some());

    let (ok, _, stderr) = pmerge(
        &[
            &shape[..],
            &["--out", double.to_str().unwrap()],
            &["--fan-in", "8", "--plan-policy", "balanced"],
        ]
        .concat(),
    );
    assert!(ok, "{stderr}");
    let (a, b) = (
        std::fs::read(&single).unwrap(),
        std::fs::read(&double).unwrap(),
    );
    let _ = std::fs::remove_file(single);
    let _ = std::fs::remove_file(double);
    assert_eq!(a.len(), 6400 * 16);
    assert!(a == b, "the two-pass tree wrote other bytes");
}

/// A multi-pass summary record describes the data, not the fan-in-capped
/// group: k runs, the longest run's blocks, and the tree's success ratio.
#[test]
fn a_multipass_summary_describes_every_run() {
    let manifest = temp_path("summary.jsonl");
    let (ok, _, stderr) = pmerge(&[
        "exec",
        "--records",
        "6400",
        "--memory",
        "100",
        "--fan-in",
        "8",
        "--manifest-out",
        manifest.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let records = read_manifest(&manifest);
    assert_eq!(records.len(), 3, "two pass records and the summary");
    let summary = records.last().unwrap();
    assert!(summary.label.contains("k=64,"), "{}", summary.label);
    assert_eq!(summary.scenario.runs, 64);
    // 100 records per run at 40 per block.
    assert_eq!(summary.scenario.run_blocks, 3);
    let ratio = summary.metrics.mean_success_ratio.expect("demand ops ran");
    assert!((0.0..=1.0).contains(&ratio), "{ratio}");
}

/// A file-backed exec without `--fan-in` stages under `--dir` like any
/// tree: it sweeps a dead process's staging and leaves none of its own.
#[test]
fn a_no_flag_file_exec_sweeps_stale_staging_and_leaves_none() {
    let root = temp_path("staging");
    let stale = root.join("exec-999999999-0").join("pass-00");
    std::fs::create_dir_all(&stale).unwrap();
    let (ok, stdout, stderr) = pmerge(&[
        "exec",
        "--backend",
        "file",
        "--dir",
        root.to_str().unwrap(),
        "--records",
        "4000",
        "--memory",
        "800",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("verified: 4000 records"), "{stdout}");
    let left: Vec<_> = std::fs::read_dir(&root)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    let _ = std::fs::remove_dir_all(&root);
    assert!(left.is_empty(), "staging left under --dir: {left:?}");
}
