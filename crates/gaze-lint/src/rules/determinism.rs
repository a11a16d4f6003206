//! Determinism rules for the simulation and render paths.
//!
//! Every figure, CSV and fingerprint this workspace emits is pinned
//! bit-exact across thread counts and skip modes (`determinism.rs`,
//! golden fixtures). Two things quietly break that contract:
//!
//! * **wall clocks** — `SystemTime::now` / `Instant::now` values that
//!   leak into computed results make reruns differ;
//! * **hash-order iteration** — `HashMap`/`HashSet` iteration order is
//!   randomized per process, so any loop over one can reorder floating
//!   point accumulation or output rows.
//!
//! The rules fire only inside the simulation/render crates
//! ([`in_scope`]); serving, benching and observability crates measure
//! real time on purpose.

use super::Finding;
use crate::source::{token_positions, SourceFile};

/// Path prefixes of the crates whose code must be deterministic.
const SCOPES: &[&str] = &[
    "crates/sim-core/src",
    "crates/gaze/src",
    "crates/baselines/src",
    "crates/gaze-sim/src",
    "crates/prefetch-common/src",
];

/// Whether `path` is in a determinism-scoped crate.
pub fn in_scope(path: &str) -> bool {
    SCOPES.iter().any(|s| path.starts_with(s))
}

/// Map-typed method calls that iterate in hash order.
const NAMED_ITER: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".retain(",
    ".into_keys()",
    ".into_values()",
];

/// Runs both determinism rules over `file`.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(&file.path) {
        return;
    }
    let bindings = collect_map_bindings(file);
    for (idx, line) in file.lex.code.iter().enumerate() {
        let lineno = idx + 1;
        if file.is_test_line(lineno) {
            continue;
        }
        for clock in ["SystemTime::now", "Instant::now"] {
            if line.contains(clock) {
                out.push(Finding {
                    path: file.path.clone(),
                    line: lineno,
                    rule: "wall_clock",
                    message: format!(
                        "{clock} in a determinism-scoped crate; wall-clock values must \
                         never influence simulated results"
                    ),
                });
            }
        }
        check_map_iteration(file, &bindings, lineno, line, out);
    }
}

/// A `HashMap`/`HashSet` binding and the line it was made on. The line
/// scopes it: a binding inside a function only applies within that
/// function's body, one outside every function (a struct field) applies
/// wherever no local binding shadows the name.
#[derive(Debug)]
struct MapBinding {
    name: String,
    line: usize,
    /// The binding is a `Vec` of maps (`name: Vec<HashMap<…>>`, e.g. one
    /// map per core): iterating an element (`name[i]`) runs in hash
    /// order, iterating the `Vec` itself does not.
    elements: bool,
}

/// Heuristically collects identifiers bound to `HashMap`/`HashSet` in
/// this file: `name: HashMap<...>` (fields, params, typed lets),
/// `name: Vec<HashMap<...>>` and `let [mut] name =
/// HashMap::new/with_capacity/from/default`.
fn collect_map_bindings(file: &SourceFile) -> Vec<MapBinding> {
    let mut names: Vec<MapBinding> = Vec::new();
    for (idx, line) in file.lex.code.iter().enumerate() {
        for ty in ["HashMap", "HashSet"] {
            for pos in token_positions(line, ty) {
                let before = line[..pos].trim_end();
                let before = before
                    .strip_suffix("std::collections::")
                    .map(str::trim_end)
                    .unwrap_or(before);
                let vec_of = before.strip_suffix("Vec<").map(str::trim_end);
                if let Some(name) = collect_binding(vec_of.unwrap_or(before), line, pos) {
                    names.push(MapBinding {
                        name,
                        line: idx + 1,
                        elements: vec_of.is_some(),
                    });
                }
            }
        }
    }
    names
}

/// Given the text before a `HashMap`/`HashSet` token, extracts the bound
/// identifier for `name: Map<...>` and `name = Map::new()` shapes.
fn collect_binding(before: &str, line: &str, pos: usize) -> Option<String> {
    let tail = line[pos..]
        .trim_start_matches(|c: char| c.is_alphanumeric())
        .trim_start();
    if let Some(b) = before.strip_suffix(':') {
        // `name: HashMap<...>` — a field, parameter or typed let.
        if tail.starts_with('<') {
            return last_identifier(b);
        }
    } else if let Some(b) = before.strip_suffix('=') {
        // `let [mut] name = HashMap::new()` etc.
        if tail.starts_with("::") {
            return last_identifier(b);
        }
    }
    None
}

/// The trailing identifier of `text`, if it ends with one.
fn last_identifier(text: &str) -> Option<String> {
    let trimmed = text.trim_end();
    let start = trimmed
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map(|i| i + 1)
        .unwrap_or(0);
    let ident = &trimmed[start..];
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some(ident.to_string())
}

/// Flags hash-order iteration: map-specific calls anywhere, and generic
/// iteration (`.iter()`, `for … in`) on identifiers known to be maps or
/// on elements of identifiers known to be `Vec`s of maps.
fn check_map_iteration(
    file: &SourceFile,
    bindings: &[MapBinding],
    lineno: usize,
    line: &str,
    out: &mut Vec<Finding>,
) {
    let mut flagged = false;
    // `.keys()` / `.values()` are map-only in this workspace, so they are
    // flagged regardless of the receiver.
    for call in [
        ".keys()",
        ".values()",
        ".values_mut()",
        ".into_keys()",
        ".into_values()",
    ] {
        if line.contains(call) {
            out.push(Finding {
                path: file.path.clone(),
                line: lineno,
                rule: "map_iteration",
                message: format!(
                    "`{call}` iterates in hash order; iteration order must not reach \
                     results, CSVs or fingerprints"
                ),
            });
            flagged = true;
        }
    }
    if flagged {
        return;
    }
    let mut seen: Vec<(&str, bool)> = Vec::new();
    for binding in bindings {
        let name = binding.name.as_str();
        let elements = binding.elements;
        if seen.contains(&(name, elements)) {
            continue;
        }
        seen.push((name, elements));
        if !binding_applies(file, bindings, name, elements, lineno) {
            continue;
        }
        let hit = if elements {
            element_iterated(line, name)
        } else {
            NAMED_ITER.iter().any(|m| occurs_as_receiver(line, name, m))
                || (line.contains("for ") && in_for_source(line, name))
        };
        if hit {
            out.push(Finding {
                path: file.path.clone(),
                line: lineno,
                rule: "map_iteration",
                message: format!(
                    "iteration over `{name}` (a HashMap/HashSet in this file) runs in \
                     hash order; iteration order must not reach results, CSVs or \
                     fingerprints"
                ),
            });
            return;
        }
    }
}

/// Whether a map binding for `name` of the given kind (a map, or a `Vec`
/// of maps when `elements` is set) is in force at `lineno`.
///
/// A binding made inside the enclosing function wins. Otherwise, if the
/// function locally binds `name` to something this pass could not prove
/// is of that kind (a `name: …` parameter or typed let, or any `let
/// [mut] name`), the file-level binding is shadowed and does not apply.
/// Only then does a file-level binding — a struct field — reach the line.
fn binding_applies(
    file: &SourceFile,
    bindings: &[MapBinding],
    name: &str,
    elements: bool,
    lineno: usize,
) -> bool {
    let same_kind = |b: &&MapBinding| b.name == name && b.elements == elements;
    let Some(region) = file.enclosing_fn(lineno) else {
        // Not inside any fn (e.g. a const initializer): any binding counts.
        return bindings.iter().any(|b| same_kind(&b));
    };
    let local_map = bindings
        .iter()
        .filter(same_kind)
        .any(|b| region.start_line <= b.line && b.line <= region.end_line);
    if local_map {
        return true;
    }
    if has_local_binding(&file.fn_text(region), name) {
        return false;
    }
    bindings
        .iter()
        .filter(same_kind)
        .any(|b| file.enclosing_fn(b.line).is_none())
}

/// Whether `text` (a function's masked source) binds `name` locally:
/// `name: Type` (parameter or typed let) or `let [mut] name`.
fn has_local_binding(text: &str, name: &str) -> bool {
    for pos in token_positions(text, name) {
        let after = text[pos + name.len()..].trim_start();
        if after.starts_with(':') && !after.starts_with("::") {
            return true;
        }
        let mut before = text[..pos].trim_end();
        if let Some(b) = before.strip_suffix("mut") {
            before = b.trim_end();
        }
        if before.ends_with("let")
            && !before[..before.len() - 3]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            return true;
        }
    }
    false
}

/// Whether `line` contains `name<method>` with `name` at a word boundary.
fn occurs_as_receiver(line: &str, name: &str, method: &str) -> bool {
    let needle = format!("{name}{method}");
    for (pos, _) in line.match_indices(&needle) {
        let before_ok = pos == 0
            || !line[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok {
            return true;
        }
    }
    false
}

/// Whether `line` iterates an element of `name`, a `Vec` of maps: an
/// iterating call on `name[…]`, or `name[…]` as the whole source of a
/// `for … in` (`for (k, v) in &name[i] {`). Iterating `name` itself
/// walks the `Vec` in index order and is not flagged.
fn element_iterated(line: &str, name: &str) -> bool {
    let for_source = line
        .find(" in ")
        .filter(|_| line.contains("for "))
        .map(|pos| pos + 4);
    token_positions(line, name).into_iter().any(|pos| {
        let Some(index) = line[pos + name.len()..].strip_prefix('[') else {
            return false;
        };
        let mut depth = 1usize;
        let Some(close) = index.find(|c| {
            match c {
                '[' => depth += 1,
                ']' => depth -= 1,
                _ => {}
            }
            depth == 0
        }) else {
            return false;
        };
        let tail = &index[close + 1..];
        let whole_for_source = for_source.is_some_and(|src| src <= pos)
            && (tail.trim().is_empty() || tail.trim_start().starts_with('{'));
        whole_for_source || NAMED_ITER.iter().any(|m| tail.starts_with(m))
    })
}

/// Whether `name` appears (word-bounded) in the source of a `for … in`.
fn in_for_source(line: &str, name: &str) -> bool {
    line.find(" in ")
        .map(|pos| &line[pos + 4..])
        .is_some_and(|src| !token_positions(src, name).is_empty())
}
