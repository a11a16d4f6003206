//! `gaze-serve` — serve the persistent results store over HTTP.
//!
//! ```text
//! gaze-serve --dir DIR [--addr 127.0.0.1:7070] [--threads N]
//!            [--scale test|quick|bench|full|paper] [--spec-dir DIR]
//!            [--job-workers N] [--job-queue N]
//! ```
//!
//! An unknown flag, a flag without its value or a stray positional
//! argument prints the usage line and exits 2.
//!
//! Endpoints (see `docs/RESULTS.md` for the full contract):
//!
//! * `GET /healthz` — liveness plus store shape (rows, segments, hit/miss
//!   counters).
//! * `GET /runs?workload=&prefetcher=&scale=&trace=&limit=` — stored runs
//!   as JSON, filtered by any combination of query parameters.
//! * `GET /specs` — every runnable spec: built-in figure specs plus the
//!   `.spec` files of `--spec-dir`.
//! * `GET /experiments?spec=NAME[&scale=...]` — run an experiment spec
//!   (a built-in figure such as `fig06`, or a `--spec-dir` file) and
//!   return its CSV, byte-identical to `gaze-experiments run --spec NAME
//!   --csv` at the same scale. Rows already in the store are served
//!   without simulation; missing rows are simulated once and persisted
//!   write-through.
//! * `POST /experiments?spec=NAME` — submit the spec as a background job
//!   (`202` + id; `429` when the queue is full); poll `GET /jobs/<id>`
//!   and fetch `GET /jobs/<id>/result`.
//!
//! Compact the store with `gzr-store compact DIR`, also while the server
//! runs: the server reopens the store on its next request.
//!
//! SIGTERM and SIGINT shut down gracefully: stop accepting, drain
//! running jobs, flush the store, exit 0.

use std::process::ExitCode;

use gaze_serve::{Server, ServerConfig};

fn usage() -> ExitCode {
    // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
    eprintln!(
        "usage: gaze-serve --dir DIR [--addr HOST:PORT] [--threads N] \
         [--scale test|quick|bench|full|paper] [--spec-dir DIR] [--job-workers N] [--job-queue N]"
    );
    ExitCode::from(2)
}

/// Graceful-shutdown signal plumbing, std-only: a C `signal()` handler
/// flips an atomic, and a watchdog thread turns that flag into a
/// [`gaze_serve::StopHandle::stop`] call (signal handlers themselves
/// must not take locks or allocate).
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // SIGINT = 2 and SIGTERM = 15 on every Unix this builds on.
        //
        // SAFETY: `signal` is the libc registration call, declared above
        // with its real C signature, passed valid signal numbers and a
        // non-capturing `extern "C"` handler. The handler is
        // async-signal-safe: it performs exactly one `AtomicBool::store`
        // — no locks, no allocation, no panicking code — which is the
        // only kind of work POSIX permits inside a signal handler.
        unsafe {
            signal(2, on_signal);
            signal(15, on_signal);
        }
    }
}

/// Parses the arguments in one pass. `env_dir` (`GAZE_RESULTS_DIR`)
/// stands in for a missing `--dir`. Every mistake is an `Err` message:
/// an unknown flag, a flag without its value, a stray positional
/// argument, or a value that does not parse.
fn parse_cli(args: &[String], env_dir: Option<String>) -> Result<ServerConfig, String> {
    fn value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    }
    fn positive(flag: &str, value: &str) -> Result<usize, String> {
        match value.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("{flag} must be a positive integer")),
        }
    }
    let mut dir = None;
    let mut config = ServerConfig::new("");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dir" => dir = Some(value(&mut it, arg)?),
            "--addr" => config.addr = value(&mut it, arg)?,
            "--threads" => config.threads = positive(arg, &value(&mut it, arg)?)?,
            "--scale" => {
                let scale = value(&mut it, arg)?;
                if gaze_sim::experiments::ExperimentScale::named(&scale).is_none() {
                    return Err(format!(
                        "unknown scale '{scale}' (test|quick|bench|full|paper)"
                    ));
                }
                config.default_scale = scale;
            }
            "--spec-dir" => {
                let spec_dir = std::path::PathBuf::from(value(&mut it, arg)?);
                if !spec_dir.is_dir() {
                    return Err(format!(
                        "--spec-dir '{}' is not a directory",
                        spec_dir.display()
                    ));
                }
                config.spec_dir = Some(spec_dir);
            }
            "--job-workers" => config.job_workers = positive(arg, &value(&mut it, arg)?)?,
            "--job-queue" => config.job_queue_depth = positive(arg, &value(&mut it, arg)?)?,
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            stray => return Err(format!("unexpected argument '{stray}'")),
        }
    }
    config.dir = dir
        .or(env_dir.filter(|v| !v.is_empty()))
        .ok_or("missing --dir (or GAZE_RESULTS_DIR)")?
        .into();
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return usage();
    }
    let config = match parse_cli(&args, std::env::var("GAZE_RESULTS_DIR").ok()) {
        Ok(config) => config,
        Err(message) => {
            // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
            eprintln!("gaze-serve: {message}");
            return usage();
        }
    };

    let server = match Server::bind(&config) {
        Ok(s) => s,
        Err(e) => {
            gaze_obs::log::error("gaze-serve", "cannot start", &[("error", &e)]);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => gaze_obs::log::info(
            "gaze-serve",
            "serving",
            &[
                ("dir", &config.dir.display()),
                ("addr", &addr),
                ("scale", &config.default_scale),
            ],
        ),
        Err(e) => gaze_obs::log::warn("gaze-serve", "bound, address unknown", &[("error", &e)]),
    }
    #[cfg(unix)]
    {
        signals::install();
        let stop = server.stop_handle();
        std::thread::spawn(move || loop {
            if signals::REQUESTED.load(std::sync::atomic::Ordering::SeqCst) {
                gaze_obs::log::info(
                    "gaze-serve",
                    "shutdown requested; draining jobs and flushing store",
                    &[],
                );
                stop.stop();
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }
    if let Err(e) = server.serve() {
        gaze_obs::log::error("gaze-serve", "serve loop failed", &[("error", &e)]);
        return ExitCode::FAILURE;
    }
    gaze_obs::log::info("gaze-serve", "stopped cleanly", &[]);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServerConfig, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_cli(&args, None)
    }

    #[test]
    fn flags_parse_in_one_pass() {
        let config = parse(&[
            "--dir",
            "store",
            "--addr",
            "0.0.0.0:1",
            "--threads",
            "3",
            "--scale",
            "test",
            "--job-workers",
            "2",
            "--job-queue",
            "5",
        ])
        .expect("valid command line");
        assert_eq!(config.dir, std::path::PathBuf::from("store"));
        assert_eq!(config.addr, "0.0.0.0:1");
        assert_eq!(config.threads, 3);
        assert_eq!(config.default_scale, "test");
        assert_eq!(config.job_workers, 2);
        assert_eq!(config.job_queue_depth, 5);
        for scale in ["test", "quick", "bench", "full", "paper"] {
            assert!(parse(&["--dir", "d", "--scale", scale]).is_ok(), "{scale}");
        }
        let from_env = parse_cli(&[], Some("env-store".to_string())).expect("env dir");
        assert_eq!(from_env.dir, std::path::PathBuf::from("env-store"));
    }

    #[test]
    fn mistakes_are_usage_errors() {
        let cases: [(&[&str], &str); 7] = [
            (&["--dir", "d", "--thread", "4"], "unknown flag '--thread'"),
            (&["--dir", "d", "--threads"], "--threads needs a value"),
            (&["--dir", "d", "stray"], "unexpected argument 'stray'"),
            (&["--dir", "d", "--threads", "0"], "positive integer"),
            (
                &["--dir", "d", "--scale", "huge"],
                "test|quick|bench|full|paper",
            ),
            (
                &["--dir", "d", "--spec-dir", "/nonexistent-spec-dir"],
                "not a directory",
            ),
            (&[], "missing --dir"),
        ];
        for (args, expected) in cases {
            let err = parse(args).expect_err("must be rejected");
            assert!(err.contains(expected), "{args:?}: {err}");
        }
    }
}
