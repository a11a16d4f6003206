//! Golden-figure regression harness.
//!
//! `tests/fixtures/` holds a small committed GZR store (the rows of
//! fig06/fig13, fig01/fig04/fig09/fig17 and the 2-core rows of fig15,
//! with every figure's `none` baselines, all at the `test` scale, one
//! segment per core count) plus the exact CSVs those figures printed when
//! the store was generated. This test regenerates each figure from the
//! fixture store and asserts:
//!
//! 1. **zero simulation** — every row is served from the store, proving
//!    the fingerprint definitions (trace, params with the model epoch,
//!    mix) and the row codec still reproduce the keys and counters written
//!    by the generating build;
//! 2. **byte-identical CSV** — the whole figure pipeline (store decode →
//!    metric projection → table formatting) matches the committed bytes.
//!
//! Any change to the on-disk format, the fingerprints, the metric
//! arithmetic or the figure assembly that would alter served results
//! fails here — without a single simulation, so the test is cheap enough
//! for tier-1. A change that moves a simulated number bumps
//! `sim_core::params::MODEL_EPOCH` (the second test below fails until it
//! does); a change that moves every key (an epoch bump, a format version
//! bump) regenerates the fixtures:
//!
//! ```text
//! rm -rf tests/fixtures/gzr-store tests/fixtures/fig*.csv
//! export GAZE_SCALE=test GAZE_RESULTS_DIR=$PWD/tests/fixtures/gzr-store
//! for fig in fig06 fig13 fig15 fig01 fig04 fig09 fig17; do
//!     cargo run --release -p gaze-sim --bin gaze-experiments -- $fig --csv > tests/fixtures/$fig.csv
//! done
//! cargo run --release -p results-store --bin gzr-store -- compact $GAZE_RESULTS_DIR
//! ```
//!
//! The store is copied into a temporary directory before use so a
//! regression that *misses* (and would simulate + write through) can
//! never dirty the committed fixtures.

use std::path::{Path, PathBuf};

use gaze_repro::gaze_sim::experiments::{run_experiment, ExperimentScale};
use gaze_repro::gaze_sim::results;
use gaze_repro::gaze_sim::runner::simulated_instructions;
use gaze_repro::gaze_sim::spec;
use gaze_repro::sim_core::params::{Fnv1a, MODEL_EPOCH};

const GOLDEN: [(&str, &str); 7] = [
    ("fig01", include_str!("fixtures/fig01.csv")),
    ("fig04", include_str!("fixtures/fig04.csv")),
    ("fig06", include_str!("fixtures/fig06.csv")),
    ("fig09", include_str!("fixtures/fig09.csv")),
    ("fig13", include_str!("fixtures/fig13.csv")),
    ("fig15", include_str!("fixtures/fig15.csv")),
    ("fig17", include_str!("fixtures/fig17.csv")),
];

fn copy_fixture_store(into: &Path) {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/gzr-store");
    std::fs::create_dir_all(into).expect("create temp store dir");
    let mut copied = 0;
    for entry in std::fs::read_dir(&src).expect("fixture store dir") {
        let path = entry.expect("fixture entry").path();
        if path.extension().and_then(|e| e.to_str()) == Some("gzr") {
            std::fs::copy(&path, into.join(path.file_name().expect("file name")))
                .expect("copy fixture segment");
            copied += 1;
        }
    }
    assert!(copied >= 2, "expected the committed 1-core and 2-core segments");
}

/// Deactivates the process-global store on drop even if an assertion
/// fails mid-test, so no other test in this binary inherits it.
struct StoreGuard;

impl Drop for StoreGuard {
    fn drop(&mut self) {
        results::configure(None).expect("deactivate store");
    }
}

#[test]
fn golden_figures_regenerate_byte_identically_from_the_committed_store() {
    let dir: PathBuf = std::env::temp_dir().join(format!("gzr-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    copy_fixture_store(&dir);

    results::configure(Some(&dir)).expect("activate fixture store");
    let _guard = StoreGuard;
    let scale = ExperimentScale::named("test").expect("test scale");

    for (figure, expected) in GOLDEN {
        let before = simulated_instructions();
        let csv: String = run_experiment(figure, &scale)
            .iter()
            .map(|t| t.to_csv())
            .collect();
        assert_eq!(
            simulated_instructions(),
            before,
            "{figure}: the committed store must serve every row without \
             simulating — a key or codec regression made the harness miss"
        );
        assert_eq!(
            csv, expected,
            "{figure}: CSV regenerated from the committed store must be \
             byte-identical to tests/fixtures/{figure}.csv"
        );

        // The same figure through the *serialized* spec path: the
        // built-in spec rendered to the text format, re-parsed, and run
        // through plan/execute/render must reproduce the same bytes —
        // again with zero simulation. This pins spec↔legacy equivalence
        // end to end (text format included), not just the in-memory
        // registry.
        let builtin = spec::builtin::builtin_spec(figure).expect("built-in spec");
        let reparsed = spec::text::parse(&spec::text::to_text(&builtin))
            .unwrap_or_else(|e| panic!("{figure}: built-in spec failed to re-parse: {e}"));
        let before = simulated_instructions();
        let spec_csv: String = spec::run_spec(&reparsed, &scale)
            .iter()
            .map(|t| t.to_csv())
            .collect();
        assert_eq!(
            simulated_instructions(),
            before,
            "{figure}: the spec path must also be simulation-free from \
             the committed store"
        );
        assert_eq!(
            spec_csv, expected,
            "{figure}: the serialized-spec path must regenerate the \
             golden CSV byte-identically"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a digest of every golden figure's name and CSV bytes.
fn golden_digest() -> u64 {
    let mut hasher = Fnv1a::new();
    for (figure, csv) in GOLDEN {
        for byte in figure.bytes().chain([0]).chain(csv.bytes()) {
            hasher.mix(u64::from(byte));
        }
    }
    hasher.finish()
}

/// The model epoch names the model that printed the golden CSVs: a CSV
/// that changes without an epoch bump fails here, so a warm store can
/// never serve rows of an older model as current.
#[test]
fn model_epoch_is_bound_to_the_golden_csvs() {
    assert_eq!(
        (MODEL_EPOCH, golden_digest()),
        (1, 0x5632_119e_dbdc_4640),
        "the golden CSVs changed: bump sim_core::params::MODEL_EPOCH, \
         regenerate tests/fixtures (see the module doc) and re-pin this pair"
    );
}
