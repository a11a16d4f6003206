//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-single --seed 0 --seconds 40 --trace 0
//! ```
//!
//! Run from the repository root. The parent process runs every
//! measurement in a child process of its own (this binary again, with
//! `child …` arguments) whose `GAZE_*` environment is cleared and then
//! set explicitly, aggregates what the children report, prints a
//! human-readable summary and, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reports the per-layer ones.
//! See `perfbench/README.md` for what each workload and metric means.

mod host;
mod metrics;
mod report;
mod seed;
mod serve;
mod sim;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use report::{Collected, Emitter};
use seed::Sweep;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The seeded single-core sweep.
    SimSingle,
    /// The seeded four-core mixes.
    SimMix,
    /// Warm serving over a prefilled store.
    ServeWarm,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::SimSingle, Workload::SimMix, Workload::ServeWarm];

    /// The workloads `BENCHMARK.json` lists. `sim-mix` runs by hand only:
    /// its 20 large jobs on 2 workers make its run-to-run spread on a
    /// shared 2-vCPU host as wide as the widest bound (see README.md).
    pub const BENCHMARKED: [Workload; 2] = [Workload::SimSingle, Workload::ServeWarm];

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSingle => "sim-single",
            Workload::SimMix => "sim-mix",
            Workload::ServeWarm => "serve-warm",
        }
    }

    fn sweep(self) -> Option<Sweep> {
        match self {
            Workload::SimSingle => Some(Sweep::Single),
            Workload::SimMix => Some(Sweep::Mix),
            Workload::ServeWarm => None,
        }
    }
}

/// Parsed command line of the parent.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload sim-single|sim-mix|serve-warm --seed N \
                     --seconds S --trace 0|1   (or: perfbench --emit-benchmark-json)";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| "bad --seconds")?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("child") {
        return match child(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                gaze_obs::log::error("perfbench", "child failed", &[("error", &e)]);
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("--emit-benchmark-json") {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            gaze_obs::log::error("perfbench", &e, &[("usage", &USAGE)]);
            return ExitCode::from(2);
        }
    };
    match run(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            gaze_obs::log::error("perfbench", "benchmark failed", &[("error", &e)]);
            ExitCode::FAILURE
        }
    }
}

/// Dispatches a child role.
fn child(args: &[String]) -> Result<(), String> {
    let out = Emitter;
    let arg = |i: usize| {
        args.get(i)
            .map(String::as_str)
            .ok_or("missing child argument")
    };
    let sweep = |s: &str| match s {
        "single" => Ok(Sweep::Single),
        "mix" => Ok(Sweep::Mix),
        _ => Err(format!("unknown sweep {s}")),
    };
    let number = |s: &str| s.parse::<u64>().map_err(|e| e.to_string());
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    match arg(0)? {
        "check" => sim::check(&root, &out),
        "sweep" => sim::sweep(sweep(arg(1)?)?, number(arg(2)?)?, arg(3)? == "1", &out),
        "layers" => sim::layers(sweep(arg(1)?)?, number(arg(2)?)?, &out),
        "prefill" => {
            serve::prefill(Path::new(arg(1)?), number(arg(2)?)?, &out).map_err(|e| e.to_string())?
        }
        "serve" => serve::serve(
            Path::new(arg(1)?),
            number(arg(2)?)?,
            number(arg(3)?)? as f64,
            arg(4)? == "1",
            &out,
        )
        .map_err(|e| e.to_string())?,
        other => return Err(format!("unknown child role {other}")),
    }
    Ok(())
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs one child to completion and folds its report into `into`. The
/// child's `GAZE_*` environment is cleared, then the engine thread
/// count, the log level and (when given) the results store are set.
fn run_child(
    root: &Path,
    args: &[&str],
    store: Option<&Path>,
    into: &mut Collected,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("child").args(args).current_dir(root);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("GAZE_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("GAZE_THREADS", host::THREADS.to_string())
        .env("GAZE_LOG", "warn");
    if let Some(store) = store {
        cmd.env("GAZE_RESULTS_DIR", store);
    }
    let output = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run child {args:?}: {e}"))?;
    if !output.status.success() {
        return Err(format!("child {args:?} exited with {}", output.status));
    }
    into.absorb(&String::from_utf8_lossy(&output.stdout))
}

fn run(args: &Args) -> Result<(), String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    for figure in ["fig06", "fig15"] {
        let fixture = root.join(format!("tests/fixtures/{figure}.csv"));
        if !fixture.is_file() {
            return Err(format!(
                "{} not found: run from the repository root",
                fixture.display()
            ));
        }
    }
    let work = WorkDir(root.join(".perfbench-work").join(format!(
        "{}-s{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(|e| e.to_string())?;
    println!(
        "host {}",
        host::record(&root, args.workload.name(), args.seed, args.trace)
    );

    let mut c = Collected::default();
    run_child(&root, &["check"], None, &mut c)?;
    let seed = args.seed.to_string();
    match args.workload.sweep() {
        Some(kind) => {
            let kind_arg = if kind == Sweep::Single {
                "single"
            } else {
                "mix"
            };
            if args.trace {
                run_child(&root, &["layers", kind_arg, &seed], None, &mut c)?;
            }
            let min_reps = if args.trace { 4 } else { 3 };
            let started = Instant::now();
            let mut rep = 0;
            while rep < min_reps || started.elapsed().as_secs() < args.seconds {
                let traced = args.trace && rep % 2 == 1;
                let store = work.0.join(format!("store-{rep}"));
                run_child(
                    &root,
                    &["sweep", kind_arg, &seed, if traced { "1" } else { "0" }],
                    Some(&store),
                    &mut c,
                )?;
                let _ = std::fs::remove_dir_all(&store);
                rep += 1;
            }
        }
        None => {
            let store = work.0.join("store");
            let work_arg = work.0.to_string_lossy().into_owned();
            run_child(&root, &["prefill", &work_arg, &seed], Some(&store), &mut c)?;
            run_child(
                &root,
                &[
                    "serve",
                    &work_arg,
                    &seed,
                    &args.seconds.to_string(),
                    if args.trace { "1" } else { "0" },
                ],
                Some(&store),
                &mut c,
            )?;
        }
    }

    metrics::check_repeats(&mut c);
    let values = if args.trace {
        metrics::per_layer_values(args.workload, &c)
    } else {
        let values = metrics::end_to_end_values(args.workload, &c);
        if let Some(empty) = values.iter().find(|v| v.value <= 0.0) {
            return Err(format!("{} was not measured", empty.name));
        }
        values
    };
    metrics::print_summary(&c, &values);
    println!("{}", metrics::result_json(&c, &values)?);
    Ok(())
}
