//! Per-rule fixtures: every rule gets a positive (fires) and a negative
//! (stays quiet) case, plus the suppression round-trip and marker
//! hygiene the engine promises.

use gaze_lint::{analyze, Docs};

fn no_docs() -> Docs {
    Docs {
        config_md: None,
        observability_md: None,
    }
}

/// Findings as `(rule, line)` pairs for compact assertions.
fn fired(files: &[(&str, &str)], docs: &Docs) -> Vec<(&'static str, usize)> {
    analyze(files, docs)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

// ---------------------------------------------------------------- wall_clock

#[test]
fn wall_clock_fires_in_determinism_scope() {
    let src = "pub fn f() {\n    let t = std::time::Instant::now();\n    drop(t);\n}\n";
    let findings = fired(&[("crates/sim-core/src/x.rs", src)], &no_docs());
    assert_eq!(findings, vec![("wall_clock", 2)]);
}

#[test]
fn wall_clock_ignores_out_of_scope_crates_and_test_code() {
    let serve = "pub fn f() { let t = std::time::Instant::now(); drop(t); }\n";
    let test_code =
        "#[cfg(test)]\nmod tests {\n    fn f() { let _ = std::time::Instant::now(); }\n}\n";
    assert!(fired(&[("crates/gaze-serve/src/x.rs", serve)], &no_docs()).is_empty());
    assert!(fired(&[("crates/sim-core/src/y.rs", test_code)], &no_docs()).is_empty());
}

// ------------------------------------------------------------ map_iteration

#[test]
fn map_iteration_flags_blanket_map_calls() {
    let src = "pub fn f(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {\n    m.values().copied().collect()\n}\n";
    let findings = fired(&[("crates/gaze/src/x.rs", src)], &no_docs());
    assert_eq!(findings, vec![("map_iteration", 2)]);
}

#[test]
fn map_iteration_tracks_local_bindings() {
    let src = "pub fn f() {\n    let mut seen = std::collections::HashSet::new();\n    seen.insert(1u32);\n    for v in seen.iter() {\n        println!(\"{v}\");\n    }\n}\n";
    let findings = fired(&[("crates/baselines/src/x.rs", src)], &no_docs());
    assert_eq!(findings, vec![("map_iteration", 4)]);
}

#[test]
fn map_iteration_respects_function_scoping() {
    // `names` is a HashSet in f() but a slice parameter in g(); only
    // f()'s own iteration may fire — and f() does not iterate.
    let src = "\
pub fn f() -> usize {
    let mut names = std::collections::HashSet::new();
    names.insert(1u32);
    names.len()
}
pub fn g(names: &[u32]) -> Vec<u32> {
    names.iter().copied().collect()
}
";
    assert!(fired(&[("crates/gaze-sim/src/x.rs", src)], &no_docs()).is_empty());
}

#[test]
fn map_iteration_reaches_struct_fields_through_self() {
    let src = "\
pub struct S {
    pending: std::collections::HashMap<u64, u64>,
}
impl S {
    pub fn tick(&mut self) {
        for (k, v) in self.pending.iter() {
            drop((k, v));
        }
    }
}
";
    let findings = fired(&[("crates/sim-core/src/x.rs", src)], &no_docs());
    assert_eq!(findings, vec![("map_iteration", 6)]);
}

#[test]
fn map_iteration_flags_elements_of_a_vec_of_maps() {
    let src = "\
pub struct S {
    per_core: Vec<std::collections::HashMap<u64, u64>>,
}
impl S {
    pub fn tick(&mut self, core: usize) -> u64 {
        let a: u64 = self.per_core[core].iter().map(|(k, _)| *k).sum();
        let mut b = 0;
        for (k, _) in &self.per_core[core] {
            b += *k;
        }
        a + b
    }
}
";
    let findings = fired(&[("crates/sim-core/src/x.rs", src)], &no_docs());
    assert_eq!(findings, vec![("map_iteration", 6), ("map_iteration", 8)]);
}

#[test]
fn map_iteration_ignores_iterating_the_vec_of_maps_itself() {
    let src = "\
pub struct S {
    per_core: Vec<std::collections::HashMap<u64, u64>>,
}
impl S {
    pub fn idle(&self) -> bool {
        let mut n = 0;
        for map in &self.per_core {
            n += map.len();
        }
        for i in 0..self.per_core[0].len() {
            n += i;
        }
        n == 0 && self.per_core.iter().all(|m| m.is_empty())
    }
}
";
    assert!(fired(&[("crates/sim-core/src/x.rs", src)], &no_docs()).is_empty());
}

// ----------------------------------------------------------- fault_coverage

#[test]
fn fault_coverage_flags_raw_io_in_durability_modules() {
    let src = "\
fn persist(path: &std::path::Path) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    drop(f);
    Ok(())
}
";
    let findings = fired(&[("crates/results-store/src/store.rs", src)], &no_docs());
    assert_eq!(findings, vec![("fault_coverage", 2)]);
}

#[test]
fn fault_coverage_satisfied_by_check_io_in_same_fn() {
    let src = "\
fn persist(path: &std::path::Path) -> std::io::Result<()> {
    fault::check_io(\"store.create\")?;
    let f = std::fs::File::create(path)?;
    drop(f);
    Ok(())
}
";
    assert!(fired(&[("crates/results-store/src/store.rs", src)], &no_docs()).is_empty());
}

#[test]
fn fault_coverage_covers_every_store_module_but_fault_and_bins() {
    // A module split out of the store later is in scope by its directory.
    let src = "fn f(p: &std::path::Path) { let _ = std::fs::remove_file(p); }\n";
    let findings = fired(
        &[("crates/results-store/src/segment_io.rs", src)],
        &no_docs(),
    );
    assert_eq!(findings, vec![("fault_coverage", 1)]);
    for exempt in [
        "crates/results-store/src/fault.rs",
        "crates/results-store/src/bin/gzr_store.rs",
        "crates/gaze-sim/src/results.rs",
    ] {
        assert!(fired(&[(exempt, src)], &no_docs()).is_empty(), "{exempt}");
    }
}

#[test]
fn fault_coverage_exempts_abstract_writers_and_other_modules() {
    // `impl Write` receivers are wrapped by the caller (FaultyWriter),
    // and files outside the durability modules are out of scope.
    let writer = "\
pub fn encode(w: &mut impl Write, v: u64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
";
    let elsewhere = "fn f(p: &std::path::Path) { let _ = std::fs::remove_file(p); }\n";
    assert!(fired(
        &[("crates/results-store/src/format.rs", writer)],
        &no_docs()
    )
    .is_empty());
    assert!(fired(
        &[("crates/results-store/src/bin/gzr_store.rs", elsewhere)],
        &no_docs()
    )
    .is_empty());
}

// ----------------------------------------------------------- safety_comment

#[test]
fn safety_comment_required_for_unsafe() {
    let src = "pub fn f() -> u8 {\n    unsafe { *std::ptr::null::<u8>() }\n}\n";
    let findings = fired(&[("crates/gaze-serve/src/x.rs", src)], &no_docs());
    assert_eq!(findings, vec![("safety_comment", 2)]);
}

#[test]
fn safety_comment_satisfied_by_adjacent_block() {
    // The SAFETY: sentence may open a multi-line comment block; any
    // contiguous run of comment lines directly above counts.
    let src = "\
pub fn f() -> u8 {
    // SAFETY: this fixture never runs; the pointer is
    // never actually dereferenced at runtime because the
    // function is unreachable.
    unsafe { *std::ptr::null::<u8>() }
}
";
    assert!(fired(&[("crates/gaze-serve/src/x.rs", src)], &no_docs()).is_empty());
}

// ----------------------------------------------------------------- eprintln

#[test]
fn eprintln_flagged_outside_tests_only() {
    let src = "pub fn f() { eprintln!(\"boom\"); }\n";
    let test_src = "#[cfg(test)]\nmod tests {\n    fn f() { eprintln!(\"fine in tests\"); }\n}\n";
    assert_eq!(
        fired(&[("crates/gaze/src/x.rs", src)], &no_docs()),
        vec![("eprintln", 1)]
    );
    assert!(fired(&[("crates/gaze/src/y.rs", test_src)], &no_docs()).is_empty());
}

// -------------------------------------------------------------- suppression

#[test]
fn allow_on_preceding_line_suppresses_and_is_marked_used() {
    let src = "\
pub fn f() {
    // gaze-lint: allow(eprintln) -- fixture: deliberate stderr
    eprintln!(\"ok\");
}
";
    assert!(fired(&[("crates/gaze/src/x.rs", src)], &no_docs()).is_empty());
}

#[test]
fn allow_trailing_on_same_line_suppresses() {
    let src =
        "pub fn f() { eprintln!(\"ok\"); } // gaze-lint: allow(eprintln) -- fixture: deliberate\n";
    assert!(fired(&[("crates/gaze/src/x.rs", src)], &no_docs()).is_empty());
}

#[test]
fn unused_allow_is_itself_a_finding() {
    let src = "// gaze-lint: allow(wall_clock) -- nothing here uses a clock\npub fn f() {}\n";
    let findings = fired(&[("crates/sim-core/src/x.rs", src)], &no_docs());
    assert_eq!(findings, vec![("unused_allow", 1)]);
}

#[test]
fn malformed_markers_are_bad_allow() {
    let missing_reason = "// gaze-lint: allow(eprintln)\npub fn f() { eprintln!(\"x\"); }\n";
    let unknown_rule = "// gaze-lint: allow(no_such_rule) -- why\npub fn f() {}\n";
    let not_allow = "// gaze-lint: deny(eprintln) -- why\npub fn f() {}\n";
    let findings = fired(&[("crates/gaze/src/a.rs", missing_reason)], &no_docs());
    // The marker is rejected, so the eprintln also still fires.
    assert!(findings.contains(&("bad_allow", 1)), "{findings:?}");
    assert!(findings.contains(&("eprintln", 2)), "{findings:?}");
    let findings = fired(&[("crates/gaze/src/b.rs", unknown_rule)], &no_docs());
    assert_eq!(findings, vec![("bad_allow", 1)]);
    let findings = fired(&[("crates/gaze/src/c.rs", not_allow)], &no_docs());
    assert_eq!(findings, vec![("bad_allow", 1)]);
}

#[test]
fn doc_comments_are_prose_not_markers() {
    let src = "//! Example: `// gaze-lint: allow(eprintln) -- reason`\npub fn f() {}\n";
    assert!(fired(&[("crates/gaze/src/x.rs", src)], &no_docs()).is_empty());
}

#[test]
fn suppressing_a_meta_rule_is_not_possible() {
    // unused_allow/bad_allow are engine hygiene, not named rules.
    let src =
        "// gaze-lint: allow(unused_allow) -- trying to silence the meta rule\npub fn f() {}\n";
    let findings = fired(&[("crates/gaze/src/x.rs", src)], &no_docs());
    assert_eq!(findings, vec![("bad_allow", 1)]);
}

// ------------------------------------------------------------ env_inventory

#[test]
fn env_inventory_cross_checks_both_directions() {
    let src = "pub fn f() -> Option<String> { std::env::var(\"GAZE_WIDGET\").ok() }\n";
    let docs_missing_var = Docs {
        config_md: Some("| Variable | Default |\n|---|---|\n| `GAZE_OTHER` | unset |\n".into()),
        observability_md: None,
    };
    let findings = fired(&[("crates/gaze/src/x.rs", src)], &docs_missing_var);
    let rules: Vec<&str> = findings.iter().map(|(r, _)| *r).collect();
    // GAZE_WIDGET undocumented + GAZE_OTHER stale.
    assert_eq!(rules, vec!["env_inventory", "env_inventory"]);

    let docs_ok = Docs {
        config_md: Some("| `GAZE_WIDGET` | unset | gaze | a widget |\n".into()),
        observability_md: None,
    };
    assert!(fired(&[("crates/gaze/src/x.rs", src)], &docs_ok).is_empty());
}

#[test]
fn env_inventory_reports_missing_config_md_once() {
    let src =
        "pub fn f() { let _ = std::env::var(\"GAZE_A\"); let _ = std::env::var(\"GAZE_B\"); }\n";
    let findings = analyze(&[("crates/gaze/src/x.rs", src)], &no_docs());
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "env_inventory");
    assert_eq!(findings[0].path, "docs/CONFIG.md");
}

// ---------------------------------------------------------- metrics_catalog

#[test]
fn metrics_catalog_validates_names_and_docs() {
    let src = "pub fn f(m: &Registry) {\n    m.counter(\"good_metric_total\");\n    m.counter(\"Bad-Name\");\n}\n";
    let docs = Docs {
        config_md: None,
        observability_md: Some("| `good_metric_total` | counter | a fixture |\n".into()),
    };
    let findings = fired(&[("crates/gaze-serve/src/x.rs", src)], &docs);
    // Only the malformed name fires; the cataloged one is clean.
    assert_eq!(findings, vec![("metrics_catalog", 3)]);
}

#[test]
fn metrics_catalog_flags_uncataloged_and_ignores_getters() {
    let src =
        "pub fn f(m: &Registry) -> u64 {\n    m.counter(\"lonely_total\");\n    m.counter()\n}\n";
    let docs = Docs {
        config_md: None,
        observability_md: Some("nothing cataloged here\n".into()),
    };
    let findings = fired(&[("crates/gaze-serve/src/x.rs", src)], &docs);
    assert_eq!(findings, vec![("metrics_catalog", 2)]);
}

// ------------------------------------------------------------- determinism

#[test]
fn findings_are_sorted_and_deduplicated() {
    let a = "pub fn f() { eprintln!(\"x\"); }\n";
    let b = "pub fn g() { let _ = std::time::Instant::now(); }\n";
    let findings = analyze(
        &[("crates/sim-core/src/b.rs", b), ("crates/gaze/src/a.rs", a)],
        &no_docs(),
    );
    let keys: Vec<(String, usize)> = findings.iter().map(|f| (f.path.clone(), f.line)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings must come out path-sorted");
}
