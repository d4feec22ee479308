//! Integration tests driving the `sampsim` binary end to end.

use std::process::Command;

fn sampsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sampsim"))
}

#[test]
fn help_shows_usage() {
    let out = sampsim().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("usage: sampsim"));
    assert!(text.contains("simpoints"));
}

#[test]
fn list_shows_all_benchmarks() {
    let out = sampsim().arg("list").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("505.mcf_r"));
    assert!(text.contains("549.fotonik3d_r"));
    // 29 benchmarks + header + separator.
    assert_eq!(text.lines().count(), 31, "{text}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = sampsim().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown command"));
    assert!(err.contains("usage:"));
}

#[test]
fn ambiguous_benchmark_is_rejected() {
    let out = sampsim()
        .args(["profile", "mcf", "--scale", "0.01"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("ambiguous"), "{err}");
}

#[test]
fn simpoints_save_and_replay_roundtrip() {
    let dir = std::env::temp_dir().join(format!("sampsim-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pb = dir.join("620.omnetpp_s.pb");
    let whole = dir.join("620.omnetpp_s.whole.pb");
    // Returns stdout and the bytes of both pinball files.
    let simpoints = |jobs: &str| {
        let out = sampsim()
            .args(["simpoints", "omnetpp_s", "--scale", "0.02", "--maxk", "8"])
            .args(["--jobs", jobs, "-o"])
            .arg(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--jobs {jobs}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let read = |path: &std::path::Path| std::fs::read(path).unwrap();
        (out.stdout, read(&pb), read(&whole))
    };
    // The selection, its table and the saved pinballs never depend on
    // the worker count.
    let serial = simpoints("1");
    assert!(!serial.1.is_empty() && !serial.2.is_empty());
    let parallel = simpoints("3");
    assert_eq!(parallel.0, serial.0, "--jobs 3 stdout diverged");
    assert_eq!(parallel.1, serial.1, "--jobs 3 regional pinballs diverged");
    assert_eq!(parallel.2, serial.2, "--jobs 3 whole pinball diverged");
    let out = sampsim()
        .arg("replay")
        .arg(&pb)
        .args(["--scale", "0.02"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("L3 miss %"), "{text}");
    assert!(text.contains("replayed"));
}

#[test]
fn lint_suite_is_clean() {
    let out = sampsim()
        .args(["lint", "--scale", "0.01", "--deny-warnings"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    // The IR lint (one-shot phases, SA110) and the memory pass (dead
    // streams, SA102) legitimately note things on the shipped suite;
    // errors and warnings must never fire.
    assert!(!text.contains("error["), "{text}");
    assert!(!text.contains("warning["), "{text}");
}

#[test]
fn lint_suite_json_matches_the_golden_file() {
    // Every finding of the suite-wide lint, byte for byte: which rules
    // fire, on which workloads, with which messages, in which order.
    let out = sampsim()
        .args(["lint", "--scale", "0.01", "--format", "json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = include_str!("golden/lint_suite_scale_0.01.jsonl");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), golden);
}

#[test]
fn lint_reports_config_errors_with_exit_code_one() {
    let out = sampsim()
        .args(["lint", "mcf_r", "--scale", "0.01", "--maxk", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("error[SA021]"), "{text}");
    assert!(text.contains("help:"), "{text}");
}

#[test]
fn lint_json_format_emits_one_object_per_line() {
    let out = sampsim()
        .args([
            "lint", "mcf_r", "--scale", "0.01", "--maxk", "0", "--format", "json",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    for line in text.lines() {
        assert!(line.starts_with("{\"code\":\"SA"), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }
    assert!(text.contains("\"code\":\"SA021\""), "{text}");
}

#[test]
fn lint_deny_warnings_turns_warnings_into_failure() {
    // A huge slice size produces a 1-slice run: SA022 + SA028 warnings.
    let base = ["lint", "mcf_r", "--scale", "0.01", "--slice", "100000000"];
    let out = sampsim().args(base).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "warnings alone stay exit 0");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("warning[SA022]"), "{text}");
    let out = sampsim()
        .args(base)
        .arg("--deny-warnings")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn lint_audits_saved_artifacts() {
    let dir = std::env::temp_dir().join(format!("sampsim-cli-lint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = sampsim()
        .args([
            "simpoints",
            "omnetpp_s",
            "--scale",
            "0.02",
            "--maxk",
            "8",
            "-o",
        ])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success());
    // Audited at the matching scale: clean.
    let out = sampsim()
        .args(["lint", "omnetpp_s", "--scale", "0.02", "--artifacts"])
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {} stderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    // Audited at a different scale: the digests no longer match (SA047).
    let out = sampsim()
        .args(["lint", "omnetpp_s", "--scale", "0.03", "--artifacts"])
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("SA047"), "{text}");
}

#[test]
fn audit_dynamic_pass_is_clean() {
    // The executor oracle: a real profile can never violate the bounds
    // the schedule proves statically, however many workers profile it.
    let audit = |jobs: &str| {
        let out = sampsim()
            .args(["audit", "omnetpp_s", "--scale", "0.002", "--jobs", jobs])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(0),
            "stdout: {} stderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let text = audit("1");
    assert!(text.contains("no findings"), "{text}");
    assert_eq!(audit("3"), text, "--jobs 3 report diverged");
}

#[test]
fn audit_artifacts_update_check_and_mutation() {
    let dir = std::env::temp_dir().join(format!("sampsim-cli-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let audit = |extra: &[&str]| {
        let mut cmd = sampsim();
        cmd.args(["audit", "mcf_r", "--scale", "0.01", "--artifacts"])
            .arg(&dir)
            .args(extra);
        cmd.output().unwrap()
    };

    // --update writes the summary; a re-check at the same scale is clean.
    assert!(audit(&["--update"]).status.success());
    let path = dir.join("505.mcf_r.art");
    assert!(path.exists());
    let out = audit(&[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Mutation: flip one payload byte. The summary still decodes, but the
    // stored digests no longer match the fresh derivation (SA047).
    let pristine = std::fs::read(&path).unwrap();
    let mut corrupt = pristine.clone();
    *corrupt.last_mut().unwrap() ^= 0x01;
    std::fs::write(&path, &corrupt).unwrap();
    let out = audit(&[]);
    assert_eq!(out.status.code(), Some(1), "corruption must fail the audit");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("SA047"), "{text}");

    // Mutation: corrupt the header. The artifact is unreadable (SA124).
    let mut headerless = pristine.clone();
    headerless[0] ^= 0xFF;
    std::fs::write(&path, &headerless).unwrap();
    let out = audit(&[]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("SA124"), "{text}");

    // A missing summary is also a finding, not a silent pass.
    std::fs::remove_file(&path).unwrap();
    let out = audit(&[]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("SA124"), "{text}");

    // Restored bytes audit clean again.
    std::fs::write(&path, &pristine).unwrap();
    assert_eq!(audit(&[]).status.code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn audit_detects_scale_drift_against_shipped_artifacts() {
    // A summary captured at one scale must not validate another build.
    let dir = std::env::temp_dir().join(format!("sampsim-cli-audit-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = sampsim()
        .args([
            "audit",
            "mcf_r",
            "--scale",
            "0.01",
            "--update",
            "--artifacts",
        ])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = sampsim()
        .args(["audit", "mcf_r", "--scale", "0.02", "--artifacts"])
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("SA047"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_rejects_wrong_scale() {
    // Pinballs saved at one scale must not attach to a different-scale
    // program (digest mismatch).
    let dir = std::env::temp_dir().join(format!("sampsim-cli-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = sampsim()
        .args([
            "simpoints",
            "omnetpp_s",
            "--scale",
            "0.02",
            "--maxk",
            "8",
            "-o",
        ])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = sampsim()
        .arg("replay")
        .arg(dir.join("620.omnetpp_s.pb"))
        .args(["--scale", "0.03"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("captured from program"), "{err}");
}

#[test]
fn jobs_zero_is_a_usage_error() {
    let out = sampsim()
        .args(["run", "mcf_r", "--scale", "0.001", "--jobs", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--jobs must be at least 1"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn a_bad_sampsim_scale_is_a_usage_error() {
    let out = sampsim()
        .args(["plan", "mcf_r"])
        .env("SAMPSIM_SCALE", "0.01x")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("bad SAMPSIM_SCALE value: 0.01x"), "{err}");
    // A command that never reads a scale never reads the variable either.
    for (command, shows) in [("list", "505.mcf_r"), ("help", "usage: sampsim")] {
        let out = sampsim()
            .arg(command)
            .env("SAMPSIM_SCALE", "0.01x")
            .output()
            .unwrap();
        let text = String::from_utf8(out.stdout).unwrap();
        assert_eq!(out.status.code(), Some(0), "{command}: {text}");
        assert!(text.contains(shows), "{command}: {text}");
    }
}

#[test]
fn jobs_garbage_is_a_usage_error() {
    for bad in ["-3", "two", ""] {
        let out = sampsim()
            .args(["run", "mcf_r", "--jobs", bad])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--jobs {bad:?} must exit 2");
    }
}

#[test]
fn jobs_accepts_explicit_counts_and_auto() {
    for jobs in ["1", "2", "7", "auto"] {
        let out = sampsim()
            .args([
                "run",
                "omnetpp_s",
                "--scale",
                "0.002",
                "--maxk",
                "6",
                "--jobs",
                jobs,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--jobs {jobs}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn run_writes_report_file_with_dash_o() {
    let dir = std::env::temp_dir().join(format!("sampsim-cli-run-o-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("report.json");
    let out = sampsim()
        .args(["run", "omnetpp_s", "--scale", "0.002", "--maxk", "6", "-o"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // stdout always carries the document; -o writes the same bytes.
    let file = std::fs::read(&path).unwrap();
    assert_eq!(file, out.stdout, "-o file diverged from stdout");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_unwritable_output_path_is_a_usage_error() {
    let out = sampsim()
        .args([
            "run",
            "omnetpp_s",
            "--scale",
            "0.002",
            "--maxk",
            "6",
            "-o",
            "/nonexistent-dir/report.json",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unwritable -o path exits 2");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot write"), "{err}");
    assert!(out.stdout.is_empty(), "no document on a failed run");
}

/// Kills the daemon on drop so a failed assertion can't leak a child
/// process; disarmed once the test has shut it down gracefully.
struct Daemon {
    child: std::process::Child,
}

impl Daemon {
    fn spawn(args: &[&str]) -> (Self, String) {
        use std::io::{BufRead, BufReader};
        let mut child = sampsim()
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0", "--jobs", "2"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap();
        // The daemon announces its (ephemeral) address on stdout first.
        let mut line = String::new();
        BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut line)
            .unwrap();
        let addr = line
            .trim()
            .strip_prefix("sampsim-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected announce line: {line:?}"))
            .to_string();
        (Self { child }, addr)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn serve_and_request_roundtrip_matches_run_stdout() {
    let run = sampsim()
        .args(["run", "omnetpp_s", "--scale", "0.002", "--maxk", "6"])
        .output()
        .unwrap();
    assert!(run.status.success());

    let (mut daemon, addr) = Daemon::spawn(&[]);
    let request = |extra: &[&str]| {
        sampsim()
            .args(["request", "--addr", &addr])
            .args(extra)
            .output()
            .unwrap()
    };
    let bench_args = ["omnetpp_s", "--scale", "0.002", "--maxk", "6"];

    let ping = request(&["--ping"]);
    assert!(ping.status.success());
    assert_eq!(ping.stdout, b"{\"ok\":\"pong\"}\n");

    // Cold, then cached: both byte-identical to `sampsim run` stdout.
    let cold = request(&bench_args);
    assert!(
        cold.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    assert_eq!(cold.stdout, run.stdout, "served reply != `run` stdout");
    let cached = request(&bench_args);
    assert!(cached.status.success());
    assert_eq!(cached.stdout, run.stdout, "cached reply != `run` stdout");

    // Server-side failures surface as exit 1 with the reply on stderr.
    let unknown = request(&["no-such-bench"]);
    assert_eq!(unknown.status.code(), Some(1));
    let err = String::from_utf8(unknown.stderr).unwrap();
    assert!(err.contains("\"code\":\"unknown-bench\""), "{err}");
    assert!(unknown.stdout.is_empty(), "error replies stay off stdout");

    let stats = request(&["--stats"]);
    assert!(stats.status.success());
    let text = String::from_utf8(stats.stdout).unwrap();
    assert!(text.starts_with("{\"ok\":\"stats\""), "{text}");
    assert!(text.contains("\"executions\":1"), "{text}");

    let shutdown = request(&["--shutdown"]);
    assert!(shutdown.status.success());
    assert_eq!(shutdown.stdout, b"{\"ok\":\"shutdown\"}\n");
    let status = daemon.child.wait().unwrap();
    assert!(status.success(), "daemon must exit 0 after shutdown");
}

#[test]
fn run_output_is_byte_identical_across_job_counts() {
    // The determinism contract at the user-visible boundary: the JSON on
    // stdout must be byte-for-byte identical for --jobs 1, explicit
    // counts, and the (auto) default. `run` profiles a cache, so --jobs 2
    // and 3 take the two-stage profiling walk and --jobs 1 the serial one.
    let args = ["run", "omnetpp_s", "--scale", "0.002", "--maxk", "6"];
    let capture = |jobs: Option<&str>| -> Vec<u8> {
        let mut cmd = sampsim();
        cmd.args(args);
        if let Some(j) = jobs {
            cmd.args(["--jobs", j]);
        }
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "jobs {jobs:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let serial = capture(Some("1"));
    let text = String::from_utf8(serial.clone()).unwrap();
    assert!(
        text.starts_with("{\"benchmark\":\"620.omnetpp_s\""),
        "{text}"
    );
    assert!(text.contains("\"points\":"), "{text}");
    assert!(text.contains("\"miss_rates_pct\""), "{text}");
    assert!(!text.contains("wall"), "wall-clock leaked into the output");
    assert_eq!(serial, capture(Some("2")), "--jobs 2 diverged");
    assert_eq!(serial, capture(Some("3")), "--jobs 3 diverged");
    assert_eq!(serial, capture(None), "default jobs diverged");
}

#[test]
fn compare_output_is_golden_byte_stable_and_validates() {
    use sampsim_util::json::{self, Value};
    let dir = std::env::temp_dir().join(format!("sampsim-cli-compare-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("compare.json");
    let args = [
        "compare",
        "omnetpp_s",
        "--scale",
        "0.002",
        "--maxk",
        "6",
        "--reps",
        "2",
    ];
    let capture = |jobs: Option<&str>, out_path: Option<&std::path::Path>| -> Vec<u8> {
        let mut cmd = sampsim();
        cmd.args(args);
        if let Some(j) = jobs {
            cmd.args(["--jobs", j]);
        }
        if let Some(p) = out_path {
            cmd.arg("-o").arg(p);
        }
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "jobs {jobs:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };

    // The golden shape: a single schema-tagged JSON line with truth plus
    // one row per registered strategy, each carrying mean/ci95/error_pct
    // estimates for CPI and every cache level.
    let serial = capture(Some("1"), Some(&path));
    let text = String::from_utf8(serial.clone()).unwrap();
    assert_eq!(text.lines().count(), 1, "one JSON line: {text}");
    let doc = json::parse(text.trim()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("sampsim-compare/v1")
    );
    assert_eq!(
        doc.get("bench").and_then(Value::as_str),
        Some("620.omnetpp_s")
    );
    assert!(
        doc.get("truth")
            .unwrap()
            .get("cpi")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );
    let rows = doc.get("strategies").and_then(Value::as_array).unwrap();
    let names: Vec<&str> = rows
        .iter()
        .map(|r| r.get("strategy").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, ["simpoint", "stratified2p", "rss"]);
    for row in rows {
        assert_eq!(row.get("replicates").and_then(Value::as_f64), Some(2.0));
        for metric in [row.get("cpi").unwrap()] {
            for field in ["mean", "ci95", "error_pct"] {
                assert!(metric.get(field).and_then(Value::as_f64).is_some());
            }
        }
        let mr = row.get("miss_rates_pct").unwrap();
        for level in ["l1i", "l1d", "l2", "l3"] {
            assert!(mr.get(level).unwrap().get("ci95").is_some());
        }
    }

    // Byte stability: -o mirrors stdout, and the bytes never depend on
    // the job count.
    let file = std::fs::read(&path).unwrap();
    assert_eq!(file, serial, "-o file diverged from stdout");
    assert_eq!(serial, capture(Some("2"), None), "--jobs 2 diverged");
    assert_eq!(serial, capture(Some("3"), None), "--jobs 3 diverged");
    assert_eq!(serial, capture(None, None), "default jobs diverged");

    // --validate accepts the real report and exits 0...
    let out = sampsim()
        .args(["compare", "--validate"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // ...and rejects registry drift (a dropped strategy row) with the
    // usage-error exit code. The rss row is the last element of the
    // strategies array, so cutting from its opening comma to the array
    // close removes exactly that object.
    let trimmed = text.trim_end();
    let cut = trimmed.find(",{\"strategy\":\"rss\"").unwrap();
    assert!(trimmed.ends_with("}]}"), "unexpected report tail");
    let broken = dir.join("broken.json");
    std::fs::write(&broken, format!("{}]}}\n", &trimmed[..cut])).unwrap();
    let out = sampsim()
        .args(["compare", "--validate"])
        .arg(&broken)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "drifted report must exit 2");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("rss") && err.contains("missing"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plan_output_is_golden_byte_stable_and_validates() {
    use sampsim_util::json::{self, Value};
    let dir = std::env::temp_dir().join(format!("sampsim-cli-plan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("plan.json");
    let args = ["plan", "omnetpp_s", "--scale", "0.002", "--maxk", "6"];
    let out = sampsim().args(args).arg("-o").arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // One schema-tagged JSON line with the statically derived shape.
    let serial = out.stdout;
    let text = String::from_utf8(serial.clone()).unwrap();
    assert_eq!(text.lines().count(), 1, "one JSON line: {text}");
    let doc = json::parse(text.trim()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("sampsim-plan/v1")
    );
    assert_eq!(
        doc.get("bench").and_then(Value::as_str),
        Some("620.omnetpp_s")
    );
    assert_eq!(
        doc.get("strategy").and_then(Value::as_str),
        Some("simpoint")
    );
    assert!(doc.get("speedup_bound").and_then(Value::as_f64).unwrap() > 1.0);
    let ci = doc.get("ci_bound_pct").unwrap();
    for metric in ["cpi", "l1i", "l1d", "l2", "l3"] {
        assert!(ci.get(metric).and_then(Value::as_f64).unwrap() > 0.0);
    }
    // MaxK 6 < 30: the plan carries its own SA140 finding.
    assert!(text.contains("\"SA140\""), "{text}");

    // Byte stability: -o mirrors stdout. A static plan runs nothing, so
    // it refuses --jobs.
    let file = std::fs::read(&path).unwrap();
    assert_eq!(file, serial, "-o file diverged from stdout");
    let refused = sampsim().args(args).args(["--jobs", "2"]).output().unwrap();
    assert_eq!(refused.status.code(), Some(2));
    let err = String::from_utf8(refused.stderr).unwrap();
    assert!(err.contains("plan refuses --jobs"), "{err}");

    // --validate accepts the real plan and exits 0...
    let out = sampsim()
        .args(["plan", "--validate"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // ...and rejects registry drift with the usage-error exit code.
    let broken = dir.join("broken.json");
    std::fs::write(
        &broken,
        text.replace("\"strategy\":\"simpoint\"", "\"strategy\":\"frobnicate\""),
    )
    .unwrap();
    let out = sampsim()
        .args(["plan", "--validate"])
        .arg(&broken)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "drifted plan must exit 2");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("frobnicate"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plan_covers_every_advertised_strategy() {
    for strategy in ["simpoint", "stratified2p", "rss"] {
        let out = sampsim()
            .args([
                "plan",
                "omnetpp_s",
                "--scale",
                "0.002",
                "--maxk",
                "6",
                "--strategy",
                strategy,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--strategy {strategy}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(
            text.contains(&format!("\"strategy\":\"{strategy}\"")),
            "{text}"
        );
    }
}

#[test]
fn lint_explain_prints_rule_descriptions() {
    for id in ["SA140", "SA145", "SA001"] {
        let out = sampsim().args(["lint", "--explain", id]).output().unwrap();
        assert!(out.status.success(), "--explain {id}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.starts_with(&format!("{id} (")), "{text}");
        assert!(text.len() > 60, "description too short: {text}");
    }
    let out = sampsim()
        .args(["lint", "--explain", "SA999"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown rule id exits 2");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("SA999"), "{err}");
}

#[test]
fn lint_rejects_unsound_sampling_configs() {
    let lint = |extra: &[&str]| {
        let mut cmd = sampsim();
        cmd.args(["lint", "omnetpp_s", "--scale", "0.002"])
            .args(extra);
        cmd.output().unwrap()
    };
    // SA140 (warning): MaxK 6 predicts 6 samples, below CLT plausibility.
    let out = lint(&["--maxk", "6", "--deny-warnings"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("warning[SA140]"), "{text}");
    assert_eq!(lint(&["--maxk", "6"]).status.code(), Some(0));

    // SA141 (warning): MaxK at the slice count degenerates to a census.
    let out = lint(&["--maxk", "100000", "--deny-warnings"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("warning[SA141]"), "{text}");

    // SA142 (error): a starved stratified2p pilot fails even without
    // --deny-warnings; the repaired twin is clean.
    let out = lint(&["--strategy", "stratified2p:pilot=1"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("error[SA142]"), "{text}");
    assert_eq!(
        lint(&["--strategy", "stratified2p:pilot=2"]).status.code(),
        Some(0)
    );

    // SA143 (warning): one stratum can carry >= 50% of the weight.
    let out = lint(&[
        "--strategy",
        "stratified2p:strata=1,samples=2",
        "--deny-warnings",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("warning[SA143]"), "{text}");

    // SA144 (error): one rss replicate has no error bars; two do.
    let out = lint(&["--strategy", "rss:set_size=30,replicates=1"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("error[SA144]"), "{text}");
    assert_eq!(
        lint(&["--strategy", "rss:set_size=30,replicates=2"])
            .status
            .code(),
        Some(0)
    );

    // SA145 (warning): a census-sized budget replays more than the whole
    // run once warmup is counted.
    let out = lint(&[
        "--strategy",
        "stratified2p:samples=100000",
        "--deny-warnings",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("warning[SA145]"), "{text}");

    // A malformed spec is a usage error (SA130), not a lint finding.
    let out = lint(&["--strategy", "rss:set_size=nope"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("SA130"), "{err}");
}

#[test]
fn run_accepts_registered_strategies_and_rejects_unknown_names() {
    for strategy in ["stratified2p", "rss"] {
        let out = sampsim()
            .args([
                "run",
                "omnetpp_s",
                "--scale",
                "0.002",
                "--strategy",
                strategy,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--strategy {strategy}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("\"points\":"), "{text}");
    }
    let out = sampsim()
        .args([
            "run",
            "omnetpp_s",
            "--scale",
            "0.002",
            "--strategy",
            "frobnicate",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown strategy exits 2");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("SA130"), "{err}");
    assert!(err.contains("frobnicate"), "{err}");
}

#[test]
fn figure_output_is_identical_across_job_counts_and_cache_state() {
    let root = std::env::temp_dir().join(format!("sampsim-figure-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // Returns (stdout, stderr) of `figure table2 xz` over memo `dir`.
    // MaxK 6, the other CLI tests' setting, keeps the k-means sweep small.
    let table2 = |jobs: &str, dir: &str, extra: &[&str]| {
        let out = sampsim()
            .args(["figure", "table2", "xz", "--scale", "0.002", "--maxk", "6"])
            .args(["--jobs", jobs])
            .args(extra)
            .arg("--artifacts")
            .arg(root.join(dir))
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(out.status.success(), "stderr: {stderr}");
        (String::from_utf8(out.stdout).unwrap(), stderr)
    };
    let (reference, cold_log) = table2("1", "a", &[]);
    assert!(reference.starts_with("Table II"), "{reference}");
    assert!(reference.contains("557.xz_r") && reference.contains("657.xz_s"));
    assert!(cold_log.contains("[sampsim] computing"), "{cold_log}");
    assert_eq!(table2("2", "b", &[]).0, reference, "cold memo, two workers");
    let (warm, warm_log) = table2("2", "a", &[]);
    assert_eq!(warm, reference, "warm memo");
    assert!(
        !warm_log.contains("computing"),
        "warm run recomputed: {warm_log}"
    );

    // `--strategy rss` selects other regions, under other keys of the
    // same memo, and reads back what it wrote.
    let (rss, _) = table2("2", "a", &["--strategy", "rss"]);
    assert_ne!(rss, reference, "--strategy must change the selection");
    let (rss_warm, rss_log) = table2("1", "a", &["--strategy", "rss"]);
    assert_eq!(rss_warm, rss, "rss, warm memo");
    assert!(
        !rss_log.contains("computing"),
        "warm run recomputed: {rss_log}"
    );

    // The memo is the serve disk tier: a format stamp plus one `.bin`
    // entry per (benchmark, configuration), one per whole Table III walk,
    // which both strategies share, and never an `.art` file.
    let mut names: Vec<String> = std::fs::read_dir(root.join("a"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(
        names.iter().filter(|n| n.ends_with(".bin")).count(),
        2 * 2 + 2,
        "{names:?}"
    );
    assert!(names.contains(&"CACHE_FORMAT".to_string()), "{names:?}");
    assert!(!names.iter().any(|n| n.ends_with(".art")), "{names:?}");
    let _ = std::fs::remove_dir_all(&root);

    let index = sampsim().arg("figure").output().unwrap();
    assert!(index.status.success());
    let index = String::from_utf8(index.stdout).unwrap();
    assert!(
        index.contains("fig12") && index.contains("ablation_vli"),
        "{index}"
    );
    let unknown = sampsim().args(["figure", "fig99"]).output().unwrap();
    assert_eq!(unknown.status.code(), Some(2));
    let err = String::from_utf8(unknown.stderr).unwrap();
    assert!(
        err.contains("unknown figure") && err.contains("table2"),
        "{err}"
    );
}

/// An exhibit that sweeps, pins or never reads a pipeline flag refuses it
/// with exit 2, naming the flag, before it opens the memo or simulates.
#[test]
fn figure_refuses_the_flags_it_sweeps_or_ignores() {
    let memo = std::env::temp_dir().join(format!("sampsim-refuse-{}", std::process::id()));
    let refused = [
        ("fig3a", "--maxk", "6"),
        ("fig3a", "--strategy", "rss"),
        ("fig3b", "--slice", "40"),
        ("fig4", "--maxk", "6"),
        ("fig4", "--strategy", "rss"),
        ("ablation_clustering", "--maxk", "6"),
        ("ablation_clustering", "--strategy", "rss"),
        ("ablation_vli", "--strategy", "rss"),
        ("suite_overview", "--slice", "40"),
        ("suite_overview", "--maxk", "6"),
        ("suite_overview", "--strategy", "rss"),
        ("calibrate", "--strategy", "rss"),
    ];
    for (figure, flag, value) in refused {
        let out = sampsim()
            .args(["figure", figure, "--scale", "0.002", flag, value])
            .arg("--artifacts")
            .arg(&memo)
            .output()
            .unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{figure} {flag}: {err}");
        assert!(
            err.contains(&format!("figure {figure} refuses {flag}")),
            "{err}"
        );
        assert!(out.stdout.is_empty(), "{figure} {flag}");
        assert!(!memo.exists(), "{figure} {flag} opened the memo");
    }
}

/// Runs `cmd` for at most a minute: a command that should refuse its
/// flags but serves instead is killed, not waited on.
fn output_within_a_minute(cmd: &mut Command) -> std::process::Output {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    child.wait_with_output().unwrap()
}

/// Every command refuses a flag it never reads: exit 2 naming the flag,
/// before it builds, binds or writes anything. No `-o` path appears, no
/// memo or cache directory, and no daemon announces an address.
#[test]
fn every_command_refuses_a_flag_it_never_reads() {
    let root = std::env::temp_dir().join(format!("sampsim-refuse-all-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let out = root.join("out");
    let memo = root.join("memo");
    let (o, m) = (out.to_str().unwrap(), memo.to_str().unwrap());
    let pb = format!("{o}/620.omnetpp_s.pb");
    let small = ["--scale", "0.002"];
    // (command line, the refused flag and its value)
    let cases: [(Vec<&str>, [&str; 2]); 17] = [
        (vec!["list"], ["--jobs", "2"]),
        (vec!["help"], ["--scale", "0.002"]),
        (
            vec!["run", "omnetpp_s", "--maxk", "6", "-o", o],
            ["--reps", "2"],
        ),
        (vec!["profile", "mcf_r"], ["--jobs", "2"]),
        (vec!["simpoints", "omnetpp_s", "-o", o], ["--limit", "5"]),
        (vec!["replay", &pb], ["--maxk", "6"]),
        (vec!["report", "omnetpp_s", "--maxk", "6"], ["-o", o]),
        (
            vec!["trace", "mcf_r", "--limit", "100", "-o", o],
            ["--jobs", "2"],
        ),
        (
            vec!["compare", "omnetpp_s", "--reps", "2", "-o", o],
            ["--strategy", "rss"],
        ),
        (vec!["plan", "omnetpp_s", "-o", o], ["--jobs", "2"]),
        (vec!["lint", "--artifacts", m], ["--jobs", "2"]),
        (vec!["audit", "--artifacts", m, "--update"], ["--maxk", "6"]),
        (vec!["perf", "--quick", "-o", o], small),
        (
            vec!["serve", "--addr", "127.0.0.1:0", "--cache-dir", m],
            ["--maxk", "6"],
        ),
        (
            vec!["fleet", "--addr", "127.0.0.1:0", "--cache-dir", m],
            small,
        ),
        (
            vec!["request", "--ping", "--addr", "127.0.0.1:1", "-o", o],
            ["--jobs", "2"],
        ),
        (
            vec!["figure", "table2", "xz", "--artifacts", m],
            ["--reps", "2"],
        ),
    ];
    for (line, [flag, value]) in cases {
        let mut cmd = sampsim();
        cmd.args(&line);
        if !matches!(line[0], "list" | "help" | "perf" | "serve" | "fleet") {
            cmd.args(small);
        }
        let output = output_within_a_minute(cmd.args([flag, value]));
        let err = String::from_utf8_lossy(&output.stderr);
        let what = format!("{line:?} {flag}");
        assert_eq!(output.status.code(), Some(2), "{what}: {err}");
        assert!(
            err.contains(&format!("{} refuses {flag}", line[0])),
            "{what}: {err}"
        );
        assert!(output.stdout.is_empty(), "{what} printed to stdout");
        assert!(!out.exists(), "{what} wrote its -o path");
        assert!(!memo.exists(), "{what} made its directory");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// `request --suite` retries a refused connection as a run request does:
/// `--retries 4` backs off for at least the policy's whole schedule, and
/// `--retries 1` gives up at once.
#[test]
fn request_suite_honours_retries() {
    use sampsim_serve::client::{RetryPolicy, DEFAULT_RETRY};
    use std::time::{Duration, Instant};
    // Bind then drop: nothing listens on the port.
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let policy = RetryPolicy {
        attempts: 4,
        ..DEFAULT_RETRY
    };
    let backoff = Duration::from_millis(policy.backoff_schedule_ms().iter().sum());
    let timed = |retries: &str| {
        let started = Instant::now();
        let output = sampsim()
            .args(["request", "--suite", "--addr", &addr, "--retries", retries])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "--retries {retries}: {err}");
        started.elapsed()
    };
    let patient = timed("4");
    assert!(patient >= backoff, "{patient:?} < {backoff:?}");
    let hasty = timed("1");
    assert!(hasty < backoff, "{hasty:?} >= {backoff:?}");
}

/// A mode that reads one flag's value (`--validate FILE` of compare, plan
/// and perf, `lint --explain ID`) refuses every other flag and any
/// benchmark: exit 2 naming the mode, before it reads, writes or prints
/// anything.
#[test]
fn every_mode_refuses_what_it_never_reads() {
    let root = std::env::temp_dir().join(format!("sampsim-refuse-mode-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let out = root.join("out");
    let o = out.to_str().unwrap();
    let kernels = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    // (command line, what stderr must name)
    let cases = [
        (
            vec!["compare", "--validate", "r.json", "--reps", "3", "-o", o],
            "compare --validate refuses --reps",
        ),
        (
            vec!["compare", "--validate", "r.json", "-o", o],
            "compare --validate refuses -o",
        ),
        (
            vec!["plan", "--validate", "p.json", "--strategy", "rss"],
            "plan --validate refuses --strategy",
        ),
        (
            vec!["perf", "--validate", kernels, "--quick", "-o", o],
            "perf --validate refuses --quick",
        ),
        (
            vec!["perf", "--validate", kernels, "--baseline", "missing.json"],
            "perf --validate refuses --baseline",
        ),
        (
            vec!["lint", "--explain", "SA140", "--format", "json"],
            "lint --explain refuses --format",
        ),
        (
            vec!["lint", "--explain", "SA140", "--maxk", "0"],
            "lint --explain refuses --maxk",
        ),
        (
            vec!["lint", "--explain", "SA140", "omnetpp_s"],
            "lint --explain takes no benchmark",
        ),
    ];
    for (line, named) in cases {
        let output = output_within_a_minute(sampsim().args(&line));
        let err = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{line:?}: {err}");
        assert!(err.contains(named), "{line:?}: {err}");
        assert!(output.stdout.is_empty(), "{line:?} printed to stdout");
        assert!(!out.exists(), "{line:?} wrote its -o path");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// `--help` or `-h` prints the usage text and exits 0 wherever it stands,
/// after a command, its operand or any flag.
#[test]
fn help_flag_prints_usage_wherever_it_stands() {
    let usage = sampsim().arg("help").output().unwrap().stdout;
    for line in [
        vec!["run", "--help"],
        vec!["run", "mcf_r", "--help"],
        vec!["--scale", "1", "--help"],
        vec!["compare", "--validate", "r.json", "-h"],
        vec!["figure", "fig3a", "--maxk", "6", "-h"],
    ] {
        let output = output_within_a_minute(sampsim().args(&line));
        let err = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{line:?}: {err}");
        assert_eq!(output.stdout, usage, "{line:?}");
        assert!(err.is_empty(), "{line:?}: {err}");
    }
}

/// `--validate FILE` is one front door for every report command: a valid
/// report prints `FILE: valid <schema> report` and exits 0; the same
/// report with one key deleted exits 2 with the key named on stderr.
#[test]
fn validate_accepts_reports_and_rejects_a_deleted_key() {
    let dir = std::env::temp_dir().join(format!("sampsim-cli-validate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let generate = |args: &[&str]| {
        let out = sampsim().args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let committed = |name: &str| std::fs::read_to_string(root.join(name)).unwrap();
    let small = ["omnetpp_s", "--scale", "0.002", "--maxk", "6"];
    let cases = [
        (
            "plan",
            "sampsim-plan/v1",
            generate(&[&["plan"], &small[..]].concat()),
            "samples",
        ),
        (
            "compare",
            "sampsim-compare/v1",
            generate(&[&["compare"], &small[..], &["--reps", "2"]].concat()),
            "slice_size",
        ),
        (
            "perf",
            "sampsim-perf-kernels/v3",
            committed("BENCH_kernels.json"),
            "num_slices",
        ),
    ];
    for (command, schema, report, key) in cases {
        let path = dir.join(format!("{command}.json"));
        std::fs::write(&path, &report).unwrap();
        let out = sampsim()
            .args([command, "--validate"])
            .arg(&path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{command}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert_eq!(
            stdout,
            format!("{}: valid {schema} report\n", path.display()),
            "{command}"
        );

        // Delete `"key":<scalar>,` — every chosen key holds a number and
        // is followed by another key.
        let start = report.find(&format!("\"{key}\":")).unwrap();
        let end = start + report[start..].find(',').unwrap() + 1;
        let broken = dir.join(format!("{command}-broken.json"));
        std::fs::write(&broken, format!("{}{}", &report[..start], &report[end..])).unwrap();
        let out = sampsim()
            .args([command, "--validate"])
            .arg(&broken)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{command}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains(&format!("missing \"{key}\"")),
            "{command}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
