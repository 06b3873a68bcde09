//! The repository benchmark: four workloads over the copy-detection
//! system, one client thread, answers checked before any timing.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload monitor --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See `README.md`.

use perfbench::common::{Config, Scale};
use perfbench::{archive, ingest, monitor};
use std::process::ExitCode;

#[global_allocator]
static HEAP: perfbench::alloc::Counting = perfbench::alloc::Counting;

const USAGE: &str = "usage: perfbench --workload monitor|archive|sharded|ingest --seed N \
                     --seconds S --trace 0|1 [--scale full|tiny] [--work-dir DIR]";

fn parse() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::Full;
    let mut work_dir = std::path::PathBuf::from(".perfbench-work");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale takes full or tiny, not {value}")),
                }
            }
            "--work-dir" => work_dir = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["monitor", "archive", "sharded", "ingest"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        work_dir,
    })
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::from(1);
    }
    let report = match cfg.workload.as_str() {
        "monitor" => monitor::run(&cfg),
        "archive" => archive::run(&cfg, archive::Engine::Disk),
        "sharded" => archive::run(&cfg, archive::Engine::Sharded),
        "ingest" => ingest::run(&cfg),
        _ => unreachable!("validated in parse"),
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    println!("{}", report.to_json(cfg.trace));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
