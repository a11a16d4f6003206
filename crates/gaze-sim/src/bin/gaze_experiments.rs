//! Command-line driver for the experiment harness.
//!
//! ```text
//! gaze-experiments <experiment|all> [--scale NAME|--full|--paper] [--csv]
//! gaze-experiments run  --spec <file|name> [--spec ...] [--scale NAME] [--csv]
//! gaze-experiments plan --spec <file|name> [--spec ...] [--scale NAME]
//! gaze-experiments specs
//! ```
//!
//! The first form runs built-in experiments by name (the names in
//! [`gaze_sim::experiments::experiment_names`], e.g. `fig06`, `table1`,
//! or `all`). The `run` form additionally accepts *spec files* in the
//! text format of `docs/EXPERIMENTS.md`, so arbitrary sweeps run without
//! recompiling; several `--spec` flags are planned jointly, so jobs
//! shared across specs simulate once. The `plan` form is a dry run: it
//! prints the job count and — with a results store active — the
//! warm/cold split, without simulating anything. `specs` lists every
//! built-in spec.
//!
//! `--scale` accepts `test`, `quick`, `bench`/`full` or `paper`
//! (`--full`/`--paper` remain as shorthands); unknown scales are
//! rejected. The default comes from `GAZE_SCALE`, falling back to
//! `quick`. `--csv` prints CSV instead of aligned tables.
//!
//! Environment:
//!
//! * `GAZE_TRACE_DIR` — stream packed `<workload>.gzt` trace files (see the
//!   `trace-pack` binary and `docs/TRACES.md`) instead of generating
//!   workloads in memory — results are bit-identical when the packed record
//!   counts match the scale.
//! * `GAZE_RESULTS_DIR` — persist every run into the results store at this
//!   directory and reuse stored runs instead of re-simulating (see
//!   `docs/RESULTS.md`). Every run persists as one row of its core count
//!   and every no-prefetching baseline as its own `none` row, so a warm
//!   store regenerates the *entire* figure set — and any custom spec it
//!   covers — with zero simulation. The store refuses to open a
//!   directory written by an older GZR version.
//! * `GAZE_REQUIRE_WARM=1` — exit with an error if any simulation ran
//!   (i.e. assert that the store served everything, multi-core paths
//!   included). Used by CI to prove the warm-restart path.

use gaze_sim::experiments::{experiment_names, ExperimentScale};
use gaze_sim::runner::simulated_instructions;
use gaze_sim::spec::{builtin, plan, run_specs, text, ExperimentSpec};

fn usage() -> ! {
    // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
    eprintln!(
        "usage: gaze-experiments <experiment|all> [--scale NAME|--full|--paper] [--csv]\n\
         \x20      gaze-experiments run  --spec <file|name> [--spec ...] [--scale NAME] [--csv]\n\
         \x20      gaze-experiments plan --spec <file|name> [--spec ...] [--scale NAME]\n\
         \x20      gaze-experiments specs\n\
         experiments: {:?}",
        experiment_names()
    );
    std::process::exit(2);
}

/// Resolves one `--spec` argument: a built-in name first, then a file in
/// the spec text format.
fn resolve_spec(arg: &str) -> ExperimentSpec {
    if let Some(spec) = builtin::builtin_spec(arg) {
        return spec;
    }
    let path = std::path::Path::new(arg);
    if !path.exists() {
        // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
        eprintln!(
            "gaze-experiments: '{arg}' is neither a built-in spec {:?} nor a file",
            builtin::builtin_names()
        );
        std::process::exit(2);
    }
    let content = std::fs::read_to_string(path).unwrap_or_else(|e| {
        // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
        eprintln!("gaze-experiments: cannot read {arg}: {e}");
        std::process::exit(2);
    });
    text::parse(&content).unwrap_or_else(|e| {
        // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
        eprintln!("gaze-experiments: {arg}: {e}");
        std::process::exit(2);
    })
}

struct Cli {
    scale: ExperimentScale,
    csv: bool,
    specs: Vec<String>,
    positional: Vec<String>,
}

fn parse_cli(args: &[String]) -> Cli {
    let mut scale_name: Option<String> = None;
    let mut csv = false;
    let mut specs = Vec::new();
    let mut positional = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--csv" => csv = true,
            "--full" => scale_name = Some("full".to_string()),
            "--paper" => scale_name = Some("paper".to_string()),
            "--scale" => match it.next() {
                Some(name) => scale_name = Some(name.clone()),
                None => {
                    // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
                    eprintln!("gaze-experiments: --scale needs a value");
                    usage();
                }
            },
            "--spec" => match it.next() {
                Some(spec) => specs.push(spec.clone()),
                None => {
                    // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
                    eprintln!("gaze-experiments: --spec needs a value");
                    usage();
                }
            },
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => {
                // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
                eprintln!("gaze-experiments: unknown flag '{flag}'");
                usage();
            }
            name => positional.push(name.to_string()),
        }
    }
    let scale = match &scale_name {
        Some(name) => ExperimentScale::named(name).unwrap_or_else(|| {
            // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
            eprintln!("gaze-experiments: unknown scale '{name}' (test|quick|bench|full|paper)");
            std::process::exit(2);
        }),
        None => ExperimentScale::from_env(),
    };
    Cli {
        scale,
        csv,
        specs,
        positional,
    }
}

/// Renders every spec (jointly planned and executed) and prints the
/// tables in spec order.
fn run_and_print(specs: &[ExperimentSpec], scale: &ExperimentScale, csv: bool) {
    let refs: Vec<&ExperimentSpec> = specs.iter().collect();
    let all_tables = run_specs(&refs, scale);
    for (spec, tables) in specs.iter().zip(all_tables) {
        gaze_obs::log::info(
            "gaze-experiments",
            "rendered",
            &[("spec", &spec.name), ("tables", &tables.len())],
        );
        for table in tables {
            if csv {
                print!("{}", table.to_csv());
            } else {
                println!("{table}");
            }
        }
    }
}

fn finish() {
    // Make the tail of the sweep durable and report how much the store
    // saved (the per-fan-out flushes already persisted everything else).
    // A failed final flush loses rows, so it must fail the process, not
    // just print.
    if let Err(e) = gaze_sim::results::try_flush() {
        gaze_obs::log::error(
            "gaze-experiments",
            "results store flush failed",
            &[("error", &e)],
        );
        std::process::exit(1);
    }
    if let Some(store) = gaze_sim::results::active_store() {
        let (rows, mix_rows) = store.with_store(|s| (s.len(), s.mix_len()));
        gaze_obs::log::info(
            "gaze-experiments",
            "results store summary",
            &[
                ("hits", &store.hits()),
                ("misses", &store.misses()),
                ("rows", &rows),
                ("mix_rows", &mix_rows),
                ("instructions_simulated", &simulated_instructions()),
            ],
        );
    }
    if std::env::var("GAZE_REQUIRE_WARM").as_deref() == Ok("1") && simulated_instructions() > 0 {
        gaze_obs::log::error(
            "gaze-experiments",
            "GAZE_REQUIRE_WARM: expected a fully warm results store but simulation ran",
            &[("instructions_simulated", &simulated_instructions())],
        );
        std::process::exit(3);
    }
}

/// `specs` — lists every built-in spec, or with `--dump NAME` prints one
/// in the canonical text form (a ready-made starting point for custom
/// sweeps).
fn run_specs_command(args: &[String]) {
    if let Some(pos) = args.iter().position(|a| a == "--dump") {
        let Some(name) = args.get(pos + 1) else {
            // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
            eprintln!("gaze-experiments: --dump needs a spec name");
            usage();
        };
        let Some(spec) = builtin::builtin_spec(name) else {
            // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
            eprintln!(
                "gaze-experiments: unknown built-in spec '{name}' (available: {:?})",
                builtin::builtin_names()
            );
            std::process::exit(2);
        };
        print!("{}", text::to_text(&spec));
        return;
    }
    for name in builtin::builtin_names() {
        let spec = builtin::builtin_spec(name).expect("registered builtin");
        println!("{name}\t{}\t{} tables", spec.name, spec.tables.len());
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first().map(String::as_str) {
        Some("run") | Some("plan") | Some("specs") => args.remove(0),
        _ => String::new(),
    };
    if command == "specs" {
        run_specs_command(&args);
        return;
    }
    let cli = parse_cli(&args);

    match command.as_str() {
        "run" | "plan" => {
            if cli.specs.is_empty() {
                // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
                eprintln!("gaze-experiments: '{command}' needs at least one --spec");
                usage();
            }
            if !cli.positional.is_empty() {
                // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
                eprintln!(
                    "gaze-experiments: unexpected arguments {:?} (use --spec)",
                    cli.positional
                );
                usage();
            }
            let specs: Vec<ExperimentSpec> = cli.specs.iter().map(|s| resolve_spec(s)).collect();
            let spec_refs: Vec<&ExperimentSpec> = specs.iter().collect();
            if command == "plan" {
                let job_plan = gaze_sim::spec::plan_specs(&spec_refs, &cli.scale);
                let report = plan::dry_run(&job_plan, &cli.scale);
                for spec in &specs {
                    println!("spec {}: {} tables", spec.name, spec.tables.len());
                }
                println!(
                    "jobs: {} total ({} single-core, {} mix), {} distinct workloads",
                    report.jobs, report.singles, report.mixes, report.workloads
                );
                if report.store_active {
                    println!("store: active");
                    println!("warm: {}", report.warm);
                    println!("cold: {}", report.cold);
                } else {
                    println!("store: none (all {} jobs cold)", report.cold);
                }
                return;
            }
            run_and_print(&specs, &cli.scale, cli.csv);
            finish();
            return;
        }
        _ => {}
    }

    // Legacy positional form: built-in experiment names (or `all`),
    // jointly planned so shared jobs run once. A stray --spec here means
    // the user forgot the subcommand — falling through would silently
    // ignore the spec and run EVERYTHING, so refuse instead.
    if !cli.specs.is_empty() {
        // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
        eprintln!("gaze-experiments: --spec requires the 'run' or 'plan' subcommand");
        usage();
    }
    let names: Vec<&str> = if cli.positional.is_empty() || cli.positional.iter().any(|a| a == "all")
    {
        experiment_names()
    } else {
        cli.positional.iter().map(String::as_str).collect()
    };
    for name in &names {
        if !experiment_names().contains(name) {
            // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
            eprintln!(
                "unknown experiment '{name}'; available: {:?}",
                experiment_names()
            );
            std::process::exit(2);
        }
    }
    let specs: Vec<ExperimentSpec> = names
        .iter()
        .map(|n| builtin::builtin_spec(n).expect("validated name"))
        .collect();
    run_and_print(&specs, &cli.scale, cli.csv);
    finish();
}
