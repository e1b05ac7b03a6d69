//! Commit → refreshed-display benchmark over loopback TCP. See README.md.

mod check;
mod clock;
mod drive;
mod json;
mod layers;
mod measure;
mod process;
mod report;
mod rig;
mod schedule;
#[cfg(test)]
mod smoke;
mod stats;
mod sweep;
mod tracepass;
mod workload;

use json::Json;
use measure::Windows;
use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workload::Workload;

#[global_allocator]
static ALLOC: process::CountingAlloc = process::CountingAlloc;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 1996;
/// Measured seconds per workload when none are given (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: u64 = 20;
/// Warm-up before every measured window.
const WARMUP: Duration = Duration::from_secs(5);

/// Idle time before each workload's set-up; see [`Windows::settle`].
const SETTLE: Duration = Duration::from_secs(3);

/// The driver threads (updater, viewer) and client connections (updater,
/// viewer) every workload uses at once.
const DRIVER_THREADS: usize = 2;

const USAGE: &str = "usage:
  displaydb-benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--out <path>]
      one workload; the last line of standard output is the result object
  displaydb-benchmark run [--seed <u64>] [--seconds <n>] [--smoke] [--out <path>]
      every workload, end-to-end then per-layer
  displaydb-benchmark compare <a.json> <b.json>
      two `run --out` files, one row per workload x gated metric; exit 1 past a bound
  displaydb-benchmark sweep [--seed <u64>]
      steady.delta at fractions of the measured closed-loop rate
workloads: steady.delta steady.whole storm.saturate upstream.durable";

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                o.workload =
                    Some(Workload::from_name(name).ok_or(format!("no workload named {name}"))?);
            }
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&o.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--trace" => {
                o.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(PathBuf::from(value("a path")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

/// The commit `.git` points at, read from its files; the benchmark runs in
/// checkouts that have none.
fn git_commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(root.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None if !head.is_empty() => head.to_string(),
        Some(reference) => std::fs::read_to_string(root.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => "unknown".into(),
    }
}

fn provenance(o: &Options, windows: Windows, outcomes: Vec<Json>) -> Json {
    Json::obj([
        ("seed", Json::Num(o.seed as f64)),
        ("nproc", Json::Num(process::nproc() as f64)),
        ("git_commit", Json::str(git_commit())),
        ("settle_seconds", Json::Num(windows.settle.as_secs_f64())),
        ("warmup_seconds", Json::Num(windows.warmup.as_secs_f64())),
        (
            "measured_seconds",
            Json::Num(windows.measured.as_secs_f64()),
        ),
        (
            "open_loop_commits_per_s",
            Json::Num(workload::OPEN_RATE as f64),
        ),
        ("links", Json::Num(schedule::LINKS as f64)),
        ("driver_threads", Json::Num(DRIVER_THREADS as f64)),
        ("setup_repeats", Json::Num(measure::SETUP_REPEATS as f64)),
        ("workloads", Json::Arr(outcomes)),
    ])
}

/// Refuse to drive more threads and connections than there are processors.
fn require_processors() -> Result<(), String> {
    if process::nproc() < DRIVER_THREADS {
        return Err(format!(
            "{DRIVER_THREADS} driver threads and connections need {DRIVER_THREADS} processors; this machine reports {}",
            process::nproc()
        ));
    }
    Ok(())
}

fn one(
    workload: Workload,
    o: &Options,
    traced: bool,
    windows: Windows,
    scratch: &Path,
) -> Result<Outcome, String> {
    require_processors()?;
    let outcome = if traced {
        measure::per_layer(workload, o.seed, windows, scratch)
    } else {
        measure::end_to_end(workload, o.seed, windows, scratch)
    }
    .map_err(|e| format!("{}: {e}", workload.name()))?;
    outcome.print();
    Ok(outcome)
}

fn write_out(o: &Options, doc: &Json) -> Result<(), String> {
    match &o.out {
        Some(path) => std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("writing {}: {e}", path.display())),
        None => Ok(()),
    }
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = parse(&args)?;
    let windows = if o.smoke {
        Windows::SMOKE
    } else {
        Windows {
            settle: SETTLE,
            warmup: WARMUP,
            measured: Duration::from_secs(o.seconds),
        }
    };
    let scratch = rig::scratch_root();
    let result = (|| match (o.positional.first().map(String::as_str), o.workload) {
        (None, Some(workload)) => {
            let outcome = one(workload, &o, o.traced, windows, &scratch)?;
            write_out(&o, &provenance(&o, windows, vec![outcome.to_json()]))?;
            println!("{}", outcome.result_line());
            Ok(outcome.correct())
        }
        (Some("run"), None) => {
            let mut docs = Vec::new();
            let mut correct = true;
            for traced in [false, true] {
                for workload in Workload::ALL {
                    let outcome = one(workload, &o, traced, windows, &scratch)?;
                    correct &= outcome.correct();
                    println!("{} {}", workload.name(), outcome.result_line());
                    docs.push(outcome.to_json());
                }
            }
            write_out(&o, &provenance(&o, windows, docs))?;
            Ok(correct)
        }
        (Some("compare"), None) => {
            let [_, a, b] = o.positional.as_slice() else {
                return Err(USAGE.to_string());
            };
            let read = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("{path}: {e}"))
                    .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
            };
            let (lines, within) = report::compare(&read(a)?, &read(b)?)?;
            lines.iter().for_each(|line| println!("{line}"));
            Ok(within)
        }
        (Some("sweep"), None) => {
            require_processors()?;
            sweep::run(o.seed, SETTLE, &scratch)
        }
        _ => Err(USAGE.to_string()),
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
