//! The experiment registry and scale presets.
//!
//! Every figure/table of the Gaze (HPCA 2025) evaluation is a built-in
//! declarative [`ExperimentSpec`](crate::spec::ExperimentSpec) (see
//! [`crate::spec`]); [`run_experiment`] resolves a name and runs it
//! through the spec pipeline (plan → execute → render). The
//! `gaze-experiments` binary, `gaze-serve`, perfbench and the
//! integration tests all run figures through that one pipeline, so CLI,
//! HTTP and test output are byte-identical by construction.

use crate::report::Table;
use crate::runner::RunParams;

/// How large an experiment to run.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Instruction budgets and system configuration.
    pub params: RunParams,
    /// Number of workloads simulated per suite (the paper uses every trace of
    /// every suite; smaller values trade fidelity for runtime).
    pub workloads_per_suite: usize,
}

impl ExperimentScale {
    /// A quick scale for CI / integration tests (a couple of minutes for the
    /// full figure set).
    pub fn quick() -> Self {
        ExperimentScale {
            params: RunParams::quick(),
            workloads_per_suite: 2,
        }
    }

    /// The paper's own scale: every registered workload at 200M + 200M
    /// instructions per run (`gaze-experiments --paper`). An overnight run
    /// on the parallel engine; pair it with `GAZE_RESULTS_DIR` so the
    /// results land in the persistent store and never need re-simulating.
    pub fn paper() -> Self {
        ExperimentScale {
            params: RunParams::paper_scale(),
            workloads_per_suite: usize::MAX,
        }
    }

    /// The default bench scale: every registered workload, moderate budgets.
    pub fn default_bench() -> Self {
        ExperimentScale {
            params: RunParams::experiment(),
            workloads_per_suite: usize::MAX,
        }
    }

    /// Reads the scale from the `GAZE_SCALE` environment variable (any
    /// name [`named`](Self::named) accepts), defaulting to `quick`. An
    /// unrecognized value falls back to `quick` with a warning — a typo'd
    /// scale silently running the wrong sweep would key the results store
    /// under a fingerprint the user never asked for.
    pub fn from_env() -> Self {
        match std::env::var("GAZE_SCALE") {
            Ok(name) => Self::named(&name).unwrap_or_else(|| {
                gaze_obs::log::warn(
                    "gaze-sim",
                    "unknown GAZE_SCALE; using quick",
                    &[("value", &name), ("known", &"test|quick|bench|full|paper")],
                );
                Self::quick()
            }),
            Err(_) => Self::quick(),
        }
    }

    /// Looks up a named scale (`test`, `quick`, `bench`/`full`, `paper`),
    /// matching the CLI flags and `GAZE_SCALE` values: the params come
    /// from [`RunParams::named_scale`], so every CLI accepts the same
    /// names. `test` is the tiny budget the integration tests use (one
    /// workload per suite).
    pub fn named(name: &str) -> Option<Self> {
        let params = RunParams::named_scale(name)?;
        let workloads_per_suite = match name {
            "test" => 1,
            "quick" => Self::quick().workloads_per_suite,
            _ => usize::MAX,
        };
        Some(ExperimentScale {
            params,
            workloads_per_suite,
        })
    }
}

/// All experiment names runnable from the binary (the built-in spec
/// registry).
pub fn experiment_names() -> Vec<&'static str> {
    crate::spec::builtin::builtin_names()
}

/// Runs the named experiment through the spec pipeline and returns its
/// tables.
///
/// # Panics
///
/// Panics if the name is not one of [`experiment_names`].
pub fn run_experiment(name: &str, scale: &ExperimentScale) -> Vec<Table> {
    let spec = crate::spec::builtin::builtin_spec(name)
        .unwrap_or_else(|| panic!("unknown experiment '{name}'"));
    crate::spec::run_spec(&spec, scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_names_match_the_run_params_table() {
        let candidates = [
            "test",
            "quick",
            "bench",
            "full",
            "paper",
            "experiment",
            "Quick",
            "",
            "nope",
        ];
        let scales: Vec<&str> = candidates
            .into_iter()
            .filter(|name| ExperimentScale::named(name).is_some())
            .collect();
        let params: Vec<&str> = candidates
            .into_iter()
            .filter(|name| RunParams::named_scale(name).is_some())
            .collect();
        assert_eq!(scales, ["test", "quick", "bench", "full", "paper"]);
        assert_eq!(params, scales);
        for name in scales {
            assert_eq!(
                ExperimentScale::named(name).map(|s| s.params.fingerprint()),
                RunParams::named_scale(name).map(|p| p.fingerprint()),
                "{name}"
            );
        }
        assert_eq!(
            ExperimentScale::named("test").unwrap().workloads_per_suite,
            1
        );
        assert_eq!(
            ExperimentScale::named("quick").unwrap().workloads_per_suite,
            2
        );
        assert_eq!(
            ExperimentScale::named("full").unwrap().workloads_per_suite,
            usize::MAX
        );
    }

    #[test]
    fn experiment_registry_covers_every_figure_and_table() {
        let names = experiment_names();
        assert!(names.len() >= 17);
        for fig in ["fig01", "fig06", "fig14", "fig18", "table1", "table4"] {
            assert!(names.contains(&fig));
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_experiment_panics() {
        let _ = run_experiment("fig99", &ExperimentScale::quick());
    }
}
