//! End-to-end smoke tests of the `precipice` CLI binary: spawn the real
//! executable, check the exit code and the CD1–CD7 verdict on stdout —
//! the same contract CI's smoke job relies on.

use std::process::{Command, Output};

fn precipice(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_precipice"))
        .args(args)
        .output()
        .expect("spawn precipice binary")
}

#[test]
fn default_scenario_passes_spec() {
    let out = precipice(&["--topology", "torus:8", "--region", "blob:2", "--seed", "7"]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "non-zero exit: {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        stdout.contains("CD1-CD7 all satisfied"),
        "missing pass verdict in:\n{stdout}"
    );
    assert!(
        stdout.contains("decisions"),
        "missing decisions table in:\n{stdout}"
    );
}

#[test]
fn optimized_cascade_csv_passes_spec() {
    let out = precipice(&[
        "--topology",
        "ring:32",
        "--region",
        "line:3",
        "--timing",
        "cascade:2ms",
        "--seed",
        "11",
        "--optimized",
        "--csv",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(stdout.contains("CD1-CD7 all satisfied"), "in:\n{stdout}");
}

#[test]
fn seed_sweep_passes_spec_and_is_parallel_deterministic() {
    // The same sweep sharded across 1 and 3 workers must produce
    // byte-identical stdout — the sweep engine's determinism contract,
    // checked end-to-end through the real binary (CI diffs the report
    // binaries the same way).
    let base = [
        "--topology",
        "torus:8",
        "--region",
        "blob:3",
        "--timing",
        "cascade:2ms",
        "--seed",
        "5",
        "--runs",
        "6",
    ];
    let serial = precipice(&[&base[..], &["--jobs", "1"]].concat());
    let parallel = precipice(&[&base[..], &["--jobs", "3"]].concat());
    assert!(serial.status.success());
    assert!(parallel.status.success());
    assert_eq!(
        serial.stdout, parallel.stdout,
        "sweep output depends on worker count"
    );
    let stdout = String::from_utf8(serial.stdout).expect("utf-8 stdout");
    assert!(
        stdout.contains("CD1-CD7 all satisfied across 6 runs"),
        "missing sweep verdict in:\n{stdout}"
    );
}

#[test]
fn check_prints_its_coverage_counters_for_any_jobs() {
    // `check` reports what the exploration's coverage map holds, and
    // the rows sit inside the output CI byte-diffs across `--jobs`.
    let base = [
        "check",
        "--topology",
        "torus:6",
        "--region",
        "blob:3",
        "--timing",
        "cascade:2ms",
        "--seed",
        "7",
        "--budget",
        "48",
    ];
    let serial = precipice(&[&base[..], &["--jobs", "1"]].concat());
    let parallel = precipice(&[&base[..], &["--jobs", "2"]].concat());
    assert!(serial.status.success() && parallel.status.success());
    assert_eq!(serial.stdout, parallel.stdout, "check depends on --jobs");
    let stdout = String::from_utf8(serial.stdout).expect("utf-8 stdout");
    let value_of = |row: &str| -> u64 {
        let line = stdout
            .lines()
            .find(|l| l.split('|').nth(1).is_some_and(|cell| cell.trim() == row))
            .unwrap_or_else(|| panic!("no {row:?} row in:\n{stdout}"));
        let cell = line.split('|').nth(2).expect("value cell").trim();
        cell.parse().unwrap_or_else(|_| panic!("{row}: {cell:?}"))
    };
    let pairs = value_of("race pairs seen");
    let flipped = value_of("race pairs seen in both orders");
    assert!(
        pairs > 0 && flipped > 0 && flipped < pairs,
        "{pairs} {flipped}"
    );
    assert!(value_of("distinct final states") >= 1);
    assert!(value_of("checker branches hit") >= 1);
    assert!(
        stdout.contains("CD1-CD7 hold on all 48 explored schedules"),
        "in:\n{stdout}"
    );
}

#[test]
fn live_check_artifact_replays_the_first_violation() {
    // The artifact must carry the whole scenario: `--at` places the
    // region, and the base seed builds the tree and the `spread` timing
    // as well as numbering the explored schedules.
    let dir = std::env::temp_dir().join("precipice-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    for (k, scenario) in [
        "--topology tree:24 --region blob:3 --at 7 --timing cascade:2ms --seed 3 --budget 64",
        "--topology tree:30 --region blob:2 --timing spread:3ms --seed 0 --budget 32",
    ]
    .into_iter()
    .enumerate()
    {
        let artifact = dir.join(format!("live-bug-{k}.txt"));
        let artifact = artifact.to_str().unwrap();
        let args: Vec<&str> = ["check", "--backend", "live"]
            .into_iter()
            .chain(scenario.split_whitespace())
            .chain(["--stop-after", "1", "--invert-arbitration"])
            .chain(["--artifact", artifact])
            .collect();
        let out = precipice(&args);
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert_eq!(out.status.code(), Some(1), "bug not caught:\n{stdout}");
        let text = std::fs::read_to_string(artifact).expect("artifact written");
        assert!(text.contains("spec backend = live"), "in:\n{text}");
        let replay = precipice(&["replay", artifact]);
        let replayed = String::from_utf8(replay.stdout).expect("utf-8 stdout");
        assert_eq!(replay.status.code(), Some(0), "`{scenario}`:\n{replayed}");
        assert!(
            replayed.contains("counterexample reproduced ✓"),
            "`{scenario}`:\n{replayed}"
        );
    }
}

#[test]
fn graph_build_info_and_mapped_run_roundtrip() {
    // The on-disk topology pipeline, end to end through the real binary:
    // build a .pcsr file, inspect it, then run the consensus scenario on
    // it via `--topology pcsr:` and require the same verdict — and the
    // same report — an in-memory build of the identical torus produces.
    let dir = std::env::temp_dir().join("precipice-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("torus12.pcsr");
    let file = file.to_str().unwrap();

    let built = precipice(&["graph", "build", "torus:12", "-o", file]);
    let stdout = String::from_utf8(built.stdout).unwrap();
    assert!(
        built.status.success(),
        "graph build failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&built.stderr)
    );
    assert!(stdout.contains("streamed"), "in:\n{stdout}");

    let info = precipice(&["graph", "info", file]);
    assert!(info.status.success());
    let stdout = String::from_utf8(info.stdout).unwrap();
    assert!(stdout.contains("verify:     ok"), "in:\n{stdout}");
    assert!(stdout.contains("nodes:      144"), "in:\n{stdout}");

    let run_args = |topology: &str| {
        [
            "--topology".to_owned(),
            topology.to_owned(),
            "--region".to_owned(),
            "blob:4".to_owned(),
            "--seed".to_owned(),
            "3".to_owned(),
        ]
    };
    let mapped = precipice(
        &run_args(&format!("pcsr:{file}"))
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    let owned = precipice(
        &run_args("torus:12")
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    assert!(mapped.status.success(), "mapped run failed");
    assert!(owned.status.success());
    let mapped_out = String::from_utf8(mapped.stdout).unwrap();
    assert!(
        mapped_out.contains("CD1-CD7 all satisfied"),
        "in:\n{mapped_out}"
    );
    // Identical modulo the topology spec echoed in the cost table.
    let scrub = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("pcsr:") && !l.contains("torus:12"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        scrub(&mapped_out),
        scrub(&String::from_utf8(owned.stdout).unwrap()),
        "mapped and in-memory runs diverged"
    );
}

#[test]
fn graph_info_rejects_garbage_gracefully() {
    let dir = std::env::temp_dir().join("precipice-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("not-a-graph.pcsr");
    std::fs::write(&file, b"definitely not a pcsr file").unwrap();
    let out = precipice(&["graph", "info", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "garbage must not crash");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not a .pcsr file"), "in:\n{stderr}");
}

#[test]
fn help_exits_with_usage() {
    let out = precipice(&["--help"]);
    // The CLI prints usage on stderr and exits 2 (usage is the "error"
    // path of the tiny flag parser).
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn bad_flags_exit_nonzero() {
    let out = precipice(&["--topology", "moebius:4"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown topology"));
    // A size below the generator's minimum is a usage error too, not an
    // abort, whether the topology is built in memory or streamed.
    for args in [
        &["--topology", "torus:2"][..],
        &["graph", "build", "torus:2", "-o", "x"],
    ] {
        let out = precipice(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("minimum"));
    }
    // So is one past the u32 node id space, which once wrapped to an
    // empty graph; nothing is written.
    let file = std::env::temp_dir().join("precipice-cli-smoke-oversized.pcsr");
    let _ = std::fs::remove_file(&file);
    for args in [
        &["--topology", "torus:4294967296"][..],
        &[
            "graph",
            "build",
            "torus:4294967296",
            "-o",
            file.to_str().unwrap(),
        ],
    ] {
        let out = precipice(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("torus:4294967296"));
    }
    assert!(!file.exists(), "an oversized build wrote {file:?}");
    // A random topology too sparse to sample connected is one too, on
    // `run` and `check` alike.
    for args in [
        &["--topology", "er:40:0.001", "--region", "blob:2"][..],
        &["check", "--topology", "er:40:0.001", "--region", "blob:2"],
    ] {
        let out = precipice(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("er:40:0.001"));
    }
    // Region and timing specs outside their grammars are refused by name
    // on `run` and `check` alike: empty blobs and lines once panicked, a
    // cascade step past the clock once panicked and a spread window past
    // it once wrapped silently. A last crash past the clock's horizon is
    // refused when the scenario is built.
    for spec in [
        ["--region", "blob:0"],
        ["--region", "line:0"],
        ["--timing", "cascade:99999999999s"],
        ["--timing", "spread:99999999999s"],
        ["--timing", "cascade:6000000000s"],
    ] {
        for args in [&spec[..], &["check", spec[0], spec[1]]] {
            let out = precipice(args);
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            assert!(
                String::from_utf8_lossy(&out.stderr).contains(spec[1]),
                "{args:?}"
            );
        }
    }
    // The live runtime has no sequential-multicast chain yet: refused,
    // not run atomically without a word.
    let out = precipice(&["check", "--backend", "live", "--sequential-multicast"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--sequential-multicast"));
}
