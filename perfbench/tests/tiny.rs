//! The benchmark's own tests: tiny-scale runs of every workload, through the
//! real command line.

use perfbench::common::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["monitor", "archive", "sharded", "ingest"];

/// The result line of one tiny run; panics unless it exits 0.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("work-{workload}-{seed}-{}", u8::from(trace)));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "tiny", "--work-dir"])
        .arg(&dir)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!dir.exists(), "the work directory is removed");
    stdout.lines().last().expect("a result line").to_string()
}

/// The value of metric `name` in a result line, checking its unit.
fn metric(line: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + key.len();
    let rest = &line[at..];
    let (value, rest) = rest.split_once(',').expect("value then unit");
    assert!(
        rest.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
        "{name} has the wrong unit in {line}"
    );
    value.parse().expect("numeric value")
}

fn count(line: &str, needle: &str) -> usize {
    line.matches(needle).count()
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_gates() {
    for w in WORKLOADS {
        let line = run(w, 3, false);
        assert!(
            line.starts_with("{\"correct\": true, ")
                && line.contains("\"failed\": 0,")
                && !line.contains("\"attempted\": 0,"),
            "{w}: {line}"
        );
        assert_eq!(count(&line, "\"unit\""), END_TO_END.len(), "{w}: {line}");
        for (name, unit) in END_TO_END {
            let v = metric(&line, name, unit);
            assert!(v > 0.0, "{w}: end-to-end metric {name} is {v}");
        }
        let line = run(w, 3, true);
        assert!(line.starts_with("{\"correct\": true, "), "{w}: {line}");
        assert_eq!(count(&line, "\"unit\""), PER_LAYER.len(), "{w}: {line}");
        for (name, unit) in PER_LAYER {
            metric(&line, name, unit);
        }
        let coverage = metric(&line, "trace.coverage", "ratio");
        assert!(
            coverage > 0.5 && coverage < 1.01,
            "{w}: coverage {coverage}"
        );
    }
}

#[test]
fn same_seed_gives_identical_counts() {
    let exact: &[(&str, &str)] = &[
        ("filter.nodes", "count"),
        ("filter.blocks", "count"),
        ("refine.entries", "count"),
        ("refine.matches", "count"),
        ("storage.reads", "count"),
        ("storage.read_bytes", "bytes"),
        ("wal.write_bytes", "bytes"),
        ("pager.write_bytes", "bytes"),
        ("video.fingerprints", "count"),
    ];
    for w in WORKLOADS {
        let (a, b) = (run(w, 5, true), run(w, 5, true));
        for (name, unit) in exact {
            assert_eq!(
                metric(&a, name, unit),
                metric(&b, name, unit),
                "{w}: {name}"
            );
        }
        let (a, b) = (run(w, 5, false), run(w, 5, false));
        // Shard replicas allocate on concurrent threads, so the sharded
        // heap peak varies with their interleaving.
        let mem: &[_] = if w == "sharded" {
            &[]
        } else {
            &[("mem_mb", "MiB")]
        };
        for &(name, unit) in [("recall", "ratio")].iter().chain(mem) {
            assert_eq!(
                metric(&a, name, unit),
                metric(&b, name, unit),
                "{w}: {name}"
            );
        }
    }
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    assert_eq!(
        count(&json, "\"unit\""),
        END_TO_END.len() + PER_LAYER.len(),
        "one entry per metric"
    );
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
