//! Shared plumbing: run configuration, the metric catalogue, a small
//! report type, quantiles, timed rounds and the result line.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Input sizes. `Full` is the benchmark proper; `Tiny` exercises every code
/// path in a few seconds (used by the benchmark's own tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

/// One invocation of the benchmark.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed (untraced) loop.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Directory for the files the `archive` and `ingest` workloads write.
    pub work_dir: std::path::PathBuf,
}

impl Config {
    /// Deterministic per-purpose seed derived from the run seed: the
    /// schedule of the traffic.
    pub fn sub_seed(&self, tag: u64) -> u64 {
        splitmix(self.seed ^ splitmix(tag))
    }
}

/// Seed of the fixed content — reference archives, query, clip and
/// recording libraries — the same for every run. The run seed schedules
/// the traffic drawn from that content (order, batching, attack pairing,
/// noise): with per-seed content the per-operation cost itself moved by
/// about ±10% from seed to seed, which would hide program changes of that
/// size.
pub fn archive_seed(tag: u64) -> u64 {
    splitmix(0x5EED_A2C4_1000 ^ splitmix(tag))
}

pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// End-to-end metrics, printed on every workload with `--trace 0`. The
/// per-workload meaning of `rate_per_s` and `op_p50_ms` is given in
/// `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mem_mb", "MiB"),
    ("recall", "ratio"),
    ("rate_per_s", "1/s"),
    ("op_p50_ms", "ms"),
];

/// Per-layer metrics, printed on every workload with `--trace 1`; a layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("filter.busy_s", "s"),
    ("filter.nodes", "count"),
    ("filter.ns_per_node", "ns"),
    ("filter.blocks", "count"),
    ("filter.mass", "ratio"),
    ("refine.busy_s", "s"),
    ("refine.entries", "count"),
    ("refine.matches", "count"),
    ("refine.match_ratio", "ratio"),
    ("pseudo_disk.load_s", "s"),
    ("pseudo_disk.sections_loaded", "count"),
    ("pseudo_disk.bytes_per_query", "bytes"),
    ("sketch.skip_ratio", "ratio"),
    ("storage.reads", "count"),
    ("storage.read_bytes", "bytes"),
    ("shard.busy_s", "s"),
    ("shard.elapsed_p50_ms", "ms"),
    ("shard.hedges", "count"),
    ("shard.failovers", "count"),
    ("shard.overhead_ratio", "ratio"),
    ("video.extract_s", "s"),
    ("video.frames_per_s", "1/s"),
    ("video.fingerprints", "count"),
    ("detector.search_s", "s"),
    ("monitor.vote_s", "s"),
    ("monitor.keyframe_p90_ms", "ms"),
    ("monitor.false_alarms", "count"),
    ("durable.insert_s", "s"),
    ("durable.merge_s", "s"),
    ("durable.merges", "count"),
    ("durable.query_s", "s"),
    ("durable.recover_s", "s"),
    ("durable.insert_p99_us", "us"),
    ("durable.write_amp", "ratio"),
    ("wal.write_bytes", "bytes"),
    ("wal.syncs", "count"),
    ("pager.write_bytes", "bytes"),
    ("index.build_s", "s"),
    ("index.build_rps", "1/s"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness gate passed and the timed answers matched them.
    pub correct: bool,
    /// Operations of the timed loop.
    pub attempted: u64,
    /// Operations that returned an error or a degraded answer.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// The result line: the metric set of the mode, each with its unit.
    /// Per-layer metrics a workload did not set are 0; a missing
    /// end-to-end metric is a bug in the workload.
    pub fn to_json(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = match self.metrics.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                assert!(v.is_finite(), "metric {name} is not finite: {v}");
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-trip form of a float, always valid JSON.
fn json_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Nearest-rank quantile of unsorted samples, in the samples' unit.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Rounds of a workload's fixed operation sequence in a timed run. Each
/// operation's time is its minimum over the rounds. The host's speed
/// swings by tens of percent from one millisecond to the next, and the
/// share of slow time drifts over seconds; the per-operation minimum over
/// rounds spread across the run is the estimate of the program's own cost
/// least disturbed by them. The set-up is repeated between rounds (see
/// [`timed`]), which spreads the rounds further and gives `setup_s` its
/// samples.
pub const ROUNDS: usize = 5;

/// Runs `f`, returning its result and wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Element-wise minimum of per-operation times over rounds.
pub fn per_op_min<'a>(mut rounds: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut out = rounds.next().expect("at least one round").to_vec();
    for r in rounds {
        assert_eq!(r.len(), out.len(), "rounds run the same operations");
        for (o, &t) in out.iter_mut().zip(r) {
            *o = o.min(t);
        }
    }
    out
}
