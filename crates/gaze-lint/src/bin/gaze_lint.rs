//! `gaze-lint` — lint the workspace's invariant contracts.
//!
//! ```text
//! gaze-lint [--json] [ROOT]
//! ```
//!
//! `ROOT` defaults to the current directory and must contain the
//! workspace `Cargo.toml`. Exit status: `0` clean, `1` findings, `2`
//! usage or I/O error. Human output is one `path:line: [rule] message`
//! per finding; `--json` emits a machine-readable array instead.

use std::path::PathBuf;
use std::process::ExitCode;

use gaze_obs::json::json_string;

fn usage() -> ExitCode {
    // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
    eprintln!("usage: gaze-lint [--json] [ROOT]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => return usage(),
            flag if flag.starts_with('-') => {
                // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
                eprintln!("gaze-lint: unknown flag '{flag}'");
                return usage();
            }
            path if root.is_none() => root = Some(PathBuf::from(path)),
            extra => {
                // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
                eprintln!("gaze-lint: unexpected argument '{extra}'");
                return usage();
            }
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));
    if !root.join("Cargo.toml").is_file() {
        // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
        eprintln!(
            "gaze-lint: '{}' does not look like a workspace root (no Cargo.toml)",
            root.display()
        );
        return ExitCode::from(2);
    }

    let findings = match gaze_lint::lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            // gaze-lint: allow(eprintln) -- CLI failure before any logging contract applies
            eprintln!("gaze-lint: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", render_json(&findings));
    } else {
        for f in &findings {
            println!("{f}");
        }
        if findings.is_empty() {
            println!("gaze-lint: clean");
        } else {
            println!("gaze-lint: {} finding(s)", findings.len());
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Renders findings as a JSON array, one finding per line.
fn render_json(findings: &[gaze_lint::Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"path\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
            json_string(&f.path),
            f.line,
            json_string(f.rule),
            json_string(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}
