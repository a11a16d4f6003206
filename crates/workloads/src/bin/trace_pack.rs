//! `trace-pack` — pack workloads into GZT trace files and inspect them.
//!
//! ```text
//! trace-pack synth <workload> --scale SCALE --out FILE.gzt
//! trace-pack suite <suite>    --scale SCALE --out-dir DIR
//! trace-pack all              --scale SCALE --out-dir DIR
//! trace-pack champsim <FILE>  --name NAME --out FILE.gzt [--max-records N]
//! trace-pack info <FILE.gzt>
//! trace-pack verify <FILE.gzt> --scale SCALE
//! ```
//!
//! * `synth` packs one synthetic workload of the registry; `suite` packs a
//!   whole suite (`spec06|spec17|ligra|parsec|cloud|gap|qmm`); `all` packs
//!   every main-suite workload. `--scale test|quick|bench|paper` sizes each
//!   trace by the instruction budget of that scale's `RunParams` (the same
//!   `records_for` computation the experiment harness uses), so packed
//!   files are bit-identical to what the figures generate in memory.
//! * `champsim` decodes an **uncompressed** ChampSim/DPC-3 instruction
//!   trace (64-byte records) into GZT; decompress `.xz`/`.gz` first.
//! * `info` prints the header of a packed file; `verify` replays it against
//!   the in-memory generator and checks the stream fingerprint.
//!
//! Point `GAZE_TRACE_DIR` at the output directory to make the experiment
//! harness stream the packed files instead of regenerating traces in
//! memory.

use std::path::PathBuf;
use std::process::ExitCode;

use sim_core::gzt::GztTrace;
use sim_core::trace::TraceSource;
use workloads::pack::{
    decode_champsim, gzt_file_name, pack_all_main, pack_suite, pack_workload, parse_suite,
    verify_pack, PackSummary,
};

fn usage() -> ExitCode {
    // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
    eprintln!(
        "usage:\n  trace-pack synth <workload> --scale SCALE --out FILE.gzt\n  \
         trace-pack suite <suite> --scale SCALE --out-dir DIR\n  \
         trace-pack all --scale SCALE --out-dir DIR\n  \
         trace-pack champsim <FILE> --name NAME --out FILE.gzt [--max-records N]\n  \
         trace-pack info <FILE.gzt>\n  \
         trace-pack verify <FILE.gzt> --scale SCALE\n\
         SCALE is test|quick|bench|paper (trace length derived from the scale's RunParams)"
    );
    ExitCode::from(2)
}

/// Value of `--flag` in `args`, if present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The instructions per pass for this invocation, derived from
/// `--scale <name>` via the experiment harness's own
/// [`records_for`](sim_core::params::records_for) computation.
fn parse_budget(args: &[String]) -> Result<u64, String> {
    let scale = flag_value(args, "--scale").ok_or("missing --scale <SCALE>")?;
    sim_core::params::RunParams::named_scale(&scale)
        .map(|p| sim_core::params::records_for(&p))
        .ok_or_else(|| format!("unknown scale '{scale}' (test|quick|bench|paper)"))
}

fn print_summary(s: &PackSummary) {
    println!(
        "packed {:24} -> {} ({} records, {} instructions/pass, {} bytes)",
        s.name,
        s.path.display(),
        s.records,
        s.instructions_per_pass,
        s.path.metadata().map(|m| m.len()).unwrap_or(0),
    );
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        return Err("missing command".to_string());
    };
    // An unknown or removed flag (such as the old `--records`) is an
    // error, never silently ignored.
    let flags: &[&str] = match command {
        "synth" => &["--scale", "--out"],
        "suite" | "all" => &["--scale", "--out-dir"],
        "champsim" => &["--name", "--out", "--max-records"],
        "verify" => &["--scale"],
        _ => &[],
    };
    if let Some(flag) = args
        .iter()
        .find(|a| a.starts_with("--") && !flags.contains(&a.as_str()))
    {
        return Err(format!("unknown flag '{flag}' for '{command}'"));
    }
    let io_err = |e: std::io::Error| e.to_string();
    match command {
        "synth" => {
            let workload = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("missing <workload>")?;
            let budget = parse_budget(&args)?;
            let out = PathBuf::from(
                flag_value(&args, "--out").unwrap_or_else(|| gzt_file_name(workload)),
            );
            let summary = pack_workload(workload, budget, &out).map_err(io_err)?;
            print_summary(&summary);
        }
        "suite" => {
            let label = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("missing <suite>")?;
            let suite = parse_suite(label).ok_or_else(|| {
                format!("unknown suite '{label}' (spec06|spec17|ligra|parsec|cloud|gap|qmm)")
            })?;
            let budget = parse_budget(&args)?;
            let dir = PathBuf::from(flag_value(&args, "--out-dir").unwrap_or_else(|| ".".into()));
            for s in pack_suite(suite, budget, &dir).map_err(io_err)? {
                print_summary(&s);
            }
        }
        "all" => {
            let budget = parse_budget(&args)?;
            let dir = PathBuf::from(flag_value(&args, "--out-dir").unwrap_or_else(|| ".".into()));
            for s in pack_all_main(budget, &dir).map_err(io_err)? {
                print_summary(&s);
            }
        }
        "champsim" => {
            let input = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("missing <FILE>")?;
            let name = flag_value(&args, "--name").ok_or("missing --name <NAME>")?;
            let out = PathBuf::from(flag_value(&args, "--out").ok_or("missing --out <FILE.gzt>")?);
            let max = flag_value(&args, "--max-records")
                .map(|v| {
                    v.replace('_', "")
                        .parse::<u64>()
                        .map_err(|_| "--max-records must be a number")
                })
                .transpose()?;
            let summary =
                decode_champsim(&PathBuf::from(input), &name, &out, max).map_err(io_err)?;
            print_summary(&summary);
        }
        "info" => {
            let path = args.get(1).ok_or("missing <FILE.gzt>")?;
            let gzt = GztTrace::open(path.as_str()).map_err(io_err)?;
            println!("file                 : {}", gzt.path().display());
            println!("name                 : {}", TraceSource::name(&gzt));
            println!("records              : {}", gzt.record_count());
            println!("instructions per pass: {}", gzt.instructions_per_pass());
        }
        "verify" => {
            let path = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("missing <FILE.gzt>")?;
            let budget = parse_budget(&args)?;
            let gzt = GztTrace::open(path.as_str()).map_err(io_err)?;
            let fp = verify_pack(&gzt, budget).map_err(io_err)?;
            println!(
                "{}: OK — matches the '{}' generator at {budget} instructions (fingerprint {fp:#018x})",
                gzt.path().display(),
                TraceSource::name(&gzt),
            );
        }
        other => return Err(format!("unknown command '{other}'")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            gaze_obs::log::error("trace-pack", "invocation failed", &[("reason", &msg)]);
            usage()
        }
    }
}
