//! Fault-injection coverage for the results store's durability paths.
//!
//! The crash-safety contract (`results_store::fault`, proven by
//! `tests/fault_injection.rs` and the kill-mid-flush schedules) only
//! holds while every byte that reaches disk flows through an armable
//! failpoint. New raw I/O added anywhere in the store's library sources
//! — including a module split out later — would silently dodge that
//! harness, so this rule requires each raw filesystem call there to sit
//! inside a function that consults `fault::check_io` or writes through a
//! `FaultyWriter`. Only the failpoint module itself and the CLI binaries
//! are exempt.
//!
//! Exemption: `.write_all(...)` in a function whose signature takes the
//! writer abstractly (`impl Write` / `dyn Write` / a `Write` bound) is
//! the *caller's* responsibility — the concrete writer is wrapped at its
//! creation site, which this rule still checks.

use super::Finding;
use crate::source::SourceFile;

/// The directory whose raw I/O must be failpoint-covered.
const SCOPE: &str = "crates/results-store/src/";

/// Paths under [`SCOPE`] that are exempt: the failpoint module and the
/// CLI binaries.
const EXEMPT: &[&str] = &[
    "crates/results-store/src/fault.rs",
    "crates/results-store/src/bin/",
];

/// Raw I/O tokens. `(needle, write_exempt)`: `write_exempt` marks calls
/// that are satisfied by an abstract-writer signature.
const RAW_IO: &[(&str, bool)] = &[
    ("File::create(", false),
    ("OpenOptions::new(", false),
    ("fs::rename(", false),
    ("fs::remove_file(", false),
    (".write_all(", true),
    (".sync_all(", false),
    (".sync_data(", false),
];

/// Runs the fault-coverage rule over `file`.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.path.starts_with(SCOPE) || EXEMPT.iter().any(|e| file.path.starts_with(e)) {
        return;
    }
    for (idx, line) in file.lex.code.iter().enumerate() {
        let lineno = idx + 1;
        if file.is_test_line(lineno) {
            continue;
        }
        for (needle, write_exempt) in RAW_IO {
            if !line.contains(needle) {
                continue;
            }
            let Some(region) = file.enclosing_fn(lineno) else {
                out.push(finding(file, lineno, needle));
                continue;
            };
            let body = file.fn_text(region);
            let covered = body.contains("check_io(") || body.contains("FaultyWriter");
            let abstract_writer = *write_exempt
                && ["impl Write", "dyn Write", ": Write"]
                    .iter()
                    .any(|sig| region.signature.contains(sig));
            if !covered && !abstract_writer {
                out.push(finding(file, lineno, needle));
            }
        }
    }
}

fn finding(file: &SourceFile, line: usize, needle: &str) -> Finding {
    Finding {
        path: file.path.clone(),
        line,
        rule: "fault_coverage",
        message: format!(
            "raw `{}` in a durability module outside any function that consults \
             fault::check_io or a FaultyWriter; new I/O must be failpoint-covered",
            needle.trim_start_matches('.').trim_end_matches('(')
        ),
    }
}
