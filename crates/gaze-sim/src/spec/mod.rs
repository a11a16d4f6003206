//! Declarative experiment specs: figures as data, arbitrary sweeps as
//! first-class requests.
//!
//! An [`ExperimentSpec`] is a typed, serializable description of an
//! experiment: which workloads ([`TraceSel`]), which prefetchers (single-
//! or multi-level [`Entry`]s), which configuration overrides
//! ([`ConfigAxis`] sweeps), which core counts or mixes, and how the
//! results project into tables ([`TableKind`]). Every paper figure
//! (fig01–fig18, Tables I/IV) is a built-in spec ([`builtin`]), and any
//! custom sweep is just another spec — written in the text format of
//! [`text`] and run from a file, no recompilation involved.
//!
//! The pipeline has three stages:
//!
//! 1. **plan** — [`plan_specs`] compiles one or more specs into a
//!    deduplicated [`JobPlan`](plan::JobPlan) of atomic simulation jobs
//!    (single-core runs, multi-level runs, multi-core mixes). A job
//!    needed by several tables — or several specs — appears once.
//! 2. **execute** — [`plan::execute`] looks every job up in the results
//!    store, fans the misses out over the parallel engine to the runners
//!    (which only simulate) and records each result write-through, so a
//!    warm results store executes a plan with zero simulation.
//! 3. **render** — [`render`] turns job results into the exact
//!    [`Table`]s the figure prints; rendering is pure (no simulation).
//!
//! See `docs/EXPERIMENTS.md` for the text format reference.

pub mod builtin;
pub mod plan;
pub mod render;
pub mod text;

use workloads::Suite;

use crate::experiments::ExperimentScale;
use crate::report::Table;

/// Maximum cores a spec may request per mix (the results store's row
/// format caps a row at this many cores).
pub const MAX_SPEC_CORES: usize = results_store::format::GZR_MAX_CORES;

/// A declarative experiment: a name plus the tables it produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Spec name (one token, no whitespace): the key used by
    /// `run --spec <name>`, `/experiments?spec=<name>` and the built-in
    /// registry.
    pub name: String,
    /// The tables this experiment renders, in print order.
    pub tables: Vec<TableSpec>,
}

/// One output table of a spec.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSpec {
    /// Table title (one line of free text).
    pub title: String,
    /// Axes and projection of this table.
    pub kind: TableKind,
}

/// A labeled prefetcher configuration. `name` is a factory prefetcher
/// name, optionally multi-level as `"l1+l2"` (e.g. `"gaze+bingo"`);
/// `label` is what the table prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Display label (defaults to `name` in the text format).
    pub label: String,
    /// Prefetcher name, `"l1"` or `"l1+l2"`.
    pub name: String,
}

impl Entry {
    /// An entry whose label is its name.
    pub fn plain(name: &str) -> Entry {
        Entry {
            label: name.to_string(),
            name: name.to_string(),
        }
    }

    /// An entry with an explicit display label.
    pub fn labeled(label: &str, name: &str) -> Entry {
        Entry {
            label: label.to_string(),
            name: name.to_string(),
        }
    }

    /// Splits the name into (L1 prefetcher, optional L2 prefetcher).
    pub fn levels(&self) -> (&str, Option<&str>) {
        split_levels(&self.name)
    }
}

/// Splits `"l1+l2"` into its components (`l2` is `None` without a `+`).
pub fn split_levels(name: &str) -> (&str, Option<&str>) {
    match name.split_once('+') {
        Some((l1, l2)) => (l1, Some(l2)),
        None => (name, None),
    }
}

/// Workload selection axis.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSel {
    /// The named suites, each truncated to the scale's
    /// `workloads_per_suite`.
    Suites(Vec<Suite>),
    /// All five main suites (Table III), truncated per suite.
    MainSuites,
    /// The bandwidth-sensitive multi-core mix list of the Fig. 13–18
    /// studies (scaled to `2 × workloads_per_suite`, clamped to 2..=8).
    Mix,
    /// The streaming/graph list of the Fig. 10 ablation (scaled to
    /// `4 × workloads_per_suite`, at least 4).
    Streaming,
    /// An explicit workload list (never truncated).
    List(Vec<String>),
}

/// Metric projected from a single-core run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// IPC speedup over the no-prefetching baseline.
    Speedup,
    /// Overall prefetch accuracy (paper §IV-A3).
    Accuracy,
    /// LLC miss coverage.
    Coverage,
    /// Late fraction of useful prefetches.
    Late,
}

impl Metric {
    /// The metric's name in the text format.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Speedup => "speedup",
            Metric::Accuracy => "accuracy",
            Metric::Coverage => "coverage",
            Metric::Late => "late",
        }
    }

    /// Parses a text-format metric name.
    pub fn parse(s: &str) -> Option<Metric> {
        match s {
            "speedup" => Some(Metric::Speedup),
            "accuracy" => Some(Metric::Accuracy),
            "coverage" => Some(Metric::Coverage),
            "late" => Some(Metric::Late),
            _ => None,
        }
    }
}

/// One column of a [`TableKind::VariantSummary`] table: the average of
/// `metric` over the selected workloads, optionally divided by the same
/// average for the `base` variant.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryCol {
    /// Column header.
    pub header: String,
    /// Metric averaged in the column.
    pub metric: Metric,
    /// Variant every row is normalized to, written
    /// `column <header> = <metric> / <base>`; `None` reports the plain
    /// average.
    pub base: Option<String>,
}

/// A sweepable system-configuration axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigAxis {
    /// DRAM transfer rate in MT/s (Fig. 16a).
    DramMtps,
    /// LLC capacity per core in megabytes (Fig. 16b; fractional values
    /// like `0.5` are valid).
    LlcMb,
    /// L2 capacity in kilobytes (Fig. 16c).
    L2Kb,
}

impl ConfigAxis {
    /// The axis name in the text format.
    pub fn name(self) -> &'static str {
        match self {
            ConfigAxis::DramMtps => "dram-mtps",
            ConfigAxis::LlcMb => "llc-mb",
            ConfigAxis::L2Kb => "l2-kb",
        }
    }

    /// Parses a text-format axis name.
    pub fn parse(s: &str) -> Option<ConfigAxis> {
        match s {
            "dram-mtps" => Some(ConfigAxis::DramMtps),
            "llc-mb" => Some(ConfigAxis::LlcMb),
            "l2-kb" => Some(ConfigAxis::L2Kb),
            _ => None,
        }
    }

    /// Applies one sweep point to a configuration.
    pub fn apply(
        self,
        config: sim_core::config::SimConfig,
        value: f64,
    ) -> sim_core::config::SimConfig {
        match self {
            ConfigAxis::DramMtps => config.with_dram_mtps(value as u64),
            ConfigAxis::LlcMb => config.with_llc_mb_per_core(value),
            ConfigAxis::L2Kb => config.with_l2_kb(value as u64),
        }
    }
}

/// One point of a configuration sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Column label (e.g. `"1536KB"`).
    pub label: String,
    /// Axis value (e.g. `1536.0`).
    pub value: f64,
}

/// One row of a [`TableKind::MultiLevel`] table.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiLevelRow {
    /// Row group label (e.g. `"group1"`).
    pub group: String,
    /// L1D prefetcher.
    pub l1: String,
    /// L2C prefetcher (`None` prints `-`).
    pub l2: Option<String>,
}

/// A named heterogeneous workload mix (one workload per core).
#[derive(Debug, Clone, PartialEq)]
pub struct MixDef {
    /// Mix name printed in the table.
    pub name: String,
    /// Per-core workloads, in core order.
    pub workloads: Vec<String>,
}

/// Axes and projection of one table.
#[derive(Debug, Clone, PartialEq)]
pub enum TableKind {
    /// Rows = prefetchers; one column per workload *group*, holding the
    /// group mean of `metric`; optionally a trailing storage-KB column
    /// (Fig. 1 shape). One group per main suite plus `AVG = main` gives
    /// the per-suite bars of Fig. 6–9; a lone `main` group, Fig. 8's
    /// late-fraction bars.
    TraceGroupMeans {
        /// Header of the label column.
        row_header: String,
        /// Metric of the group columns.
        metric: Metric,
        /// Row prefetchers.
        rows: Vec<Entry>,
        /// `(column header, workload selection)` per group column.
        groups: Vec<(String, TraceSel)>,
        /// Append a `storage_KB` column from the factory's storage model.
        with_storage: bool,
    },
    /// Rows = variants; columns = averages over the selected workloads,
    /// each optionally normalized to a base variant (Fig. 4 and 17 shape).
    VariantSummary {
        /// Header of the label column.
        row_header: String,
        /// Workloads aggregated over.
        traces: TraceSel,
        /// Row variants.
        rows: Vec<Entry>,
        /// Aggregate columns.
        columns: Vec<SummaryCol>,
    },
    /// Rows = workloads; columns = prefetchers (Fig. 10/11/18 shape).
    WorkloadRows {
        /// Workload rows.
        traces: TraceSel,
        /// Metric of every cell.
        metric: Metric,
        /// Column prefetchers.
        rows: Vec<Entry>,
        /// Normalize each row to its first column's value (Fig. 18).
        normalize_to_first: bool,
        /// Append an average row with this label (Fig. 10's `AVG`).
        avg_label: Option<String>,
    },
    /// Per-suite sections of workload rows with per-suite average rows
    /// (Fig. 12 shape). `traces` must select suites.
    SuiteSections {
        /// Suites sectioned over (must be [`TraceSel::Suites`] or
        /// [`TraceSel::MainSuites`]).
        traces: TraceSel,
        /// Metric of every cell.
        metric: Metric,
        /// Column prefetchers.
        rows: Vec<Entry>,
    },
    /// Rows = (group, L1, L2) multi-level combinations; one column with
    /// the mean speedup over the selected workloads (Fig. 13 shape).
    MultiLevel {
        /// Workloads averaged over.
        traces: TraceSel,
        /// Level combinations, in row order.
        rows: Vec<MultiLevelRow>,
    },
    /// Homogeneous + heterogeneous multi-core scaling rows per
    /// (prefetcher × core count) (Fig. 14 shape).
    MulticoreScaling {
        /// Workloads the mixes are built from.
        traces: TraceSel,
        /// Row prefetchers.
        rows: Vec<Entry>,
        /// Core counts swept (each 1..=[`MAX_SPEC_CORES`]).
        cores: Vec<usize>,
    },
    /// Named heterogeneous mixes with per-core and geometric-mean
    /// speedups (Fig. 15 shape). All mixes must have the same core count.
    MixPerCore {
        /// The mixes, in row-group order.
        mixes: Vec<MixDef>,
        /// Row prefetchers per mix.
        rows: Vec<Entry>,
    },
    /// Rows = prefetchers; columns = configuration sweep points; cell =
    /// mean of `metric` over the selected workloads under the overridden
    /// configuration (Fig. 16 shape).
    ConfigSweep {
        /// Workloads averaged over.
        traces: TraceSel,
        /// Metric of every cell.
        metric: Metric,
        /// Swept configuration axis.
        axis: ConfigAxis,
        /// Sweep points, in column order.
        points: Vec<SweepPoint>,
        /// Row prefetchers.
        rows: Vec<Entry>,
    },
    /// Gaze's per-structure storage breakdown (Table I; no simulation).
    StorageBreakdown,
    /// Per-prefetcher storage budgets (Table IV; no simulation).
    StorageList {
        /// Listed prefetchers.
        rows: Vec<Entry>,
    },
}

impl TableKind {
    /// The kind's name in the text format.
    pub fn name(&self) -> &'static str {
        match self {
            TableKind::TraceGroupMeans { .. } => "trace-group-means",
            TableKind::VariantSummary { .. } => "variant-summary",
            TableKind::WorkloadRows { .. } => "workload-rows",
            TableKind::SuiteSections { .. } => "suite-sections",
            TableKind::MultiLevel { .. } => "multi-level",
            TableKind::MulticoreScaling { .. } => "multicore-scaling",
            TableKind::MixPerCore { .. } => "mix-per-core",
            TableKind::ConfigSweep { .. } => "config-sweep",
            TableKind::StorageBreakdown => "storage-breakdown",
            TableKind::StorageList { .. } => "storage-list",
        }
    }
}

/// Runs several specs as one jointly planned batch: jobs shared across
/// tables *and across specs* are deduplicated and simulated (or served
/// from the results store) exactly once. Returns each spec's tables, in
/// input order.
pub fn run_specs(specs: &[&ExperimentSpec], scale: &ExperimentScale) -> Vec<Vec<Table>> {
    run_specs_with_progress(specs, scale, None)
}

/// [`run_specs`] with an optional `(done, total)` jobs-completed callback
/// (see [`plan::Progress`]), used by the serving layer to report async
/// job progress.
pub fn run_specs_with_progress(
    specs: &[&ExperimentSpec],
    scale: &ExperimentScale,
    progress: Option<plan::Progress<'_>>,
) -> Vec<Vec<Table>> {
    let job_plan = plan_specs(specs, scale);
    let results = plan::execute_with_progress(&job_plan, scale, progress);
    specs
        .iter()
        .map(|spec| render::render_spec(spec, scale, &results))
        .collect()
}

/// Runs one spec (see [`run_specs`]).
pub fn run_spec(spec: &ExperimentSpec, scale: &ExperimentScale) -> Vec<Table> {
    run_specs(&[spec], scale)
        .pop()
        .expect("one table set per spec")
}

/// Compiles specs into one deduplicated job plan without executing it.
pub fn plan_specs(specs: &[&ExperimentSpec], scale: &ExperimentScale) -> plan::JobPlan {
    let mut job_plan = plan::JobPlan::default();
    for spec in specs {
        for table in &spec.tables {
            plan::table_jobs(&table.kind, scale, &mut job_plan);
        }
    }
    job_plan
}

/// Validates a spec: every referenced prefetcher, workload, suite, axis
/// and shape constraint is checked, with a descriptive error naming the
/// offending value. [`text::parse`] calls this, so a parsed spec is
/// always valid; call it directly on programmatically built specs.
pub fn validate(spec: &ExperimentSpec) -> Result<(), String> {
    if spec.name.is_empty() || spec.name.chars().any(char::is_whitespace) {
        return Err(format!(
            "spec name '{}' must be one non-empty token without whitespace",
            spec.name
        ));
    }
    if spec.tables.is_empty() {
        return Err(format!("spec '{}' has no tables", spec.name));
    }
    for table in &spec.tables {
        if table.title.is_empty() || table.title.contains('\n') {
            return Err(format!(
                "table title '{}' must be one non-empty line",
                table.title
            ));
        }
        validate_kind(&table.kind).map_err(|e| format!("table '{}': {e}", table.title))?;
    }
    Ok(())
}

fn validate_kind(kind: &TableKind) -> Result<(), String> {
    match kind {
        TableKind::TraceGroupMeans {
            row_header,
            rows,
            groups,
            with_storage,
            ..
        } => {
            validate_label(row_header)?;
            validate_entries(rows)?;
            if *with_storage {
                for entry in rows {
                    if entry.name.contains('+') {
                        return Err(format!(
                            "storage column requires single-level prefetchers, got '{}'",
                            entry.name
                        ));
                    }
                }
            }
            if groups.is_empty() {
                return Err("trace-group-means needs at least one group".to_string());
            }
            for (header, sel) in groups {
                validate_label(header)?;
                validate_traces(sel)?;
            }
            Ok(())
        }
        TableKind::VariantSummary {
            row_header,
            traces,
            rows,
            columns,
        } => {
            validate_label(row_header)?;
            validate_entries(rows)?;
            validate_traces(traces)?;
            if columns.is_empty() {
                return Err("variant-summary needs at least one column".to_string());
            }
            for col in columns {
                validate_label(&col.header)?;
                if let Some(base) = &col.base {
                    validate_level_name(base)?;
                }
            }
            Ok(())
        }
        TableKind::WorkloadRows {
            traces,
            rows,
            avg_label,
            ..
        } => {
            validate_entries(rows)?;
            if let Some(label) = avg_label {
                validate_label(label)?;
            }
            validate_traces(traces)
        }
        TableKind::SuiteSections { traces, rows, .. } => {
            validate_entries(rows)?;
            validate_traces(traces)?;
            match traces {
                TraceSel::Suites(_) | TraceSel::MainSuites => Ok(()),
                _ => Err(
                    "suite-sections requires a suite selection (suites:... or main)".to_string(),
                ),
            }
        }
        TableKind::MultiLevel { traces, rows } => {
            validate_traces(traces)?;
            if rows.is_empty() {
                return Err("multi-level needs at least one level row".to_string());
            }
            for row in rows {
                validate_label(&row.group)?;
                validate_level_component(&row.l1)?;
                if let Some(l2) = &row.l2 {
                    validate_level_component(l2)?;
                }
            }
            Ok(())
        }
        TableKind::MulticoreScaling {
            traces,
            rows,
            cores,
        } => {
            validate_entries(rows)?;
            validate_plain_entries(rows)?;
            validate_traces(traces)?;
            if cores.is_empty() {
                return Err("multicore-scaling needs at least one core count".to_string());
            }
            for &c in cores {
                if c == 0 || c > MAX_SPEC_CORES {
                    return Err(format!("core count {c} out of range 1..={MAX_SPEC_CORES}"));
                }
            }
            Ok(())
        }
        TableKind::MixPerCore { mixes, rows } => {
            validate_entries(rows)?;
            validate_plain_entries(rows)?;
            if mixes.is_empty() {
                return Err("mix-per-core needs at least one mix".to_string());
            }
            let cores = mixes[0].workloads.len();
            for mix in mixes {
                validate_label(&mix.name)?;
                if mix.workloads.is_empty() || mix.workloads.len() > MAX_SPEC_CORES {
                    return Err(format!(
                        "mix '{}' must have 1..={MAX_SPEC_CORES} workloads",
                        mix.name
                    ));
                }
                if mix.workloads.len() != cores {
                    return Err(format!(
                        "mix '{}' has {} workloads but '{}' has {cores} — all mixes of a table must share a core count",
                        mix.name,
                        mix.workloads.len(),
                        mixes[0].name
                    ));
                }
                for w in &mix.workloads {
                    validate_workload(w)?;
                }
            }
            Ok(())
        }
        TableKind::ConfigSweep {
            traces,
            points,
            rows,
            ..
        } => {
            validate_entries(rows)?;
            validate_traces(traces)?;
            if points.is_empty() {
                return Err("config-sweep needs at least one point".to_string());
            }
            for p in points {
                validate_label(&p.label)?;
                if !p.value.is_finite() || p.value <= 0.0 {
                    return Err(format!(
                        "sweep point '{}' has non-positive value {}",
                        p.label, p.value
                    ));
                }
            }
            Ok(())
        }
        TableKind::StorageBreakdown => Ok(()),
        TableKind::StorageList { rows } => {
            validate_entries(rows)?;
            validate_plain_entries(rows)
        }
    }
}

fn validate_entries(rows: &[Entry]) -> Result<(), String> {
    if rows.is_empty() {
        return Err("needs at least one row".to_string());
    }
    for entry in rows {
        validate_label(&entry.label)?;
        validate_level_name(&entry.name)?;
    }
    Ok(())
}

/// Rejects multi-level (`l1+l2`) names where only plain prefetchers make
/// sense (mixes run one prefetcher per core; storage is per prefetcher).
fn validate_plain_entries(rows: &[Entry]) -> Result<(), String> {
    for entry in rows {
        if entry.name.contains('+') {
            return Err(format!(
                "multi-level prefetcher '{}' is not valid here",
                entry.name
            ));
        }
    }
    Ok(())
}

fn validate_label(label: &str) -> Result<(), String> {
    if label.is_empty() || label.contains('\n') || label.contains(" = ") || label != label.trim() {
        return Err(format!(
            "label '{label}' must be non-empty, single-line, without ' = ' or surrounding spaces"
        ));
    }
    Ok(())
}

fn validate_level_name(name: &str) -> Result<(), String> {
    let (l1, l2) = split_levels(name);
    validate_level_component(l1)?;
    if let Some(l2) = l2 {
        if l2.contains('+') {
            return Err(format!(
                "'{name}': at most one L2 prefetcher may be combined with '+'"
            ));
        }
        validate_level_component(l2)?;
    }
    Ok(())
}

fn validate_level_component(name: &str) -> Result<(), String> {
    if crate::factory::is_valid_prefetcher(name) {
        Ok(())
    } else {
        Err(format!("unknown prefetcher '{name}'"))
    }
}

fn validate_workload(name: &str) -> Result<(), String> {
    if workloads::is_known_workload(name) {
        Ok(())
    } else {
        Err(format!("unknown workload '{name}'"))
    }
}

fn validate_traces(sel: &TraceSel) -> Result<(), String> {
    match sel {
        TraceSel::Suites(suites) if suites.is_empty() => {
            Err("suite selection must name at least one suite".to_string())
        }
        TraceSel::List(names) => {
            if names.is_empty() {
                return Err("workload list must name at least one workload".to_string());
            }
            for name in names {
                validate_workload(name)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Resolves a trace selection into workload names at the given scale.
pub fn resolve_workloads(sel: &TraceSel, scale: &ExperimentScale) -> Vec<String> {
    match sel {
        TraceSel::Suites(suites) => suites
            .iter()
            .flat_map(|s| suite_workloads(*s, scale))
            .collect(),
        TraceSel::MainSuites => Suite::main_suites()
            .into_iter()
            .flat_map(|s| suite_workloads(s, scale))
            .collect(),
        TraceSel::Mix => {
            let all = MIX_WORKLOADS;
            let n = scale
                .workloads_per_suite
                .saturating_mul(2)
                .clamp(2, all.len());
            all[..n].iter().map(|s| s.to_string()).collect()
        }
        TraceSel::Streaming => STREAMING_WORKLOADS
            .iter()
            .take(scale.workloads_per_suite.saturating_mul(4).max(4))
            .map(|s| s.to_string())
            .collect(),
        TraceSel::List(names) => names.clone(),
    }
}

/// The suites a selection spans (for per-suite grouping); `None` when the
/// selection is not suite-shaped.
pub fn selected_suites(sel: &TraceSel) -> Option<Vec<Suite>> {
    match sel {
        TraceSel::Suites(suites) => Some(suites.clone()),
        TraceSel::MainSuites => Some(Suite::main_suites().to_vec()),
        _ => None,
    }
}

/// One suite's workloads truncated to the scale.
pub fn suite_workloads(suite: Suite, scale: &ExperimentScale) -> Vec<String> {
    workloads::workload_names(suite)
        .into_iter()
        .take(scale.workloads_per_suite)
        .map(|s| s.to_string())
        .collect()
}

/// Workloads of the multi-core/sensitivity studies (a bandwidth-sensitive
/// mix of streaming, recurrent-footprint, graph and irregular behaviour).
pub const MIX_WORKLOADS: [&str; 8] = [
    "bwaves_s",
    "fotonik3d_s",
    "PageRank",
    "mcf_s",
    "cassandra",
    "lbm_s",
    "BFS",
    "streamcluster",
];

/// Workloads of the streaming-module ablation (Fig. 10).
pub const STREAMING_WORKLOADS: [&str; 8] = [
    "bwaves_s",
    "lbm_s",
    "roms_s",
    "facesim",
    "streamcluster",
    "BFS-init",
    "PageRank",
    "BFS",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunParams;

    fn scale(wps: usize) -> ExperimentScale {
        ExperimentScale {
            params: RunParams::test(),
            workloads_per_suite: wps,
        }
    }

    #[test]
    fn trace_selections_resolve_with_scale_rules() {
        let s1 = scale(1);
        assert_eq!(resolve_workloads(&TraceSel::Mix, &s1).len(), 2);
        assert_eq!(resolve_workloads(&TraceSel::Streaming, &s1).len(), 4);
        assert_eq!(
            resolve_workloads(&TraceSel::Suites(vec![Suite::Parsec]), &s1),
            vec!["facesim"]
        );
        assert_eq!(resolve_workloads(&TraceSel::MainSuites, &s1).len(), 5);
        let s2 = scale(2);
        assert_eq!(resolve_workloads(&TraceSel::Mix, &s2).len(), 4);
        assert_eq!(resolve_workloads(&TraceSel::Streaming, &s2).len(), 8);
        // Explicit lists never truncate; huge scales saturate, not wrap.
        let list = TraceSel::List(vec!["bwaves_s".into()]);
        assert_eq!(resolve_workloads(&list, &scale(usize::MAX)).len(), 1);
        assert_eq!(
            resolve_workloads(&TraceSel::Mix, &scale(usize::MAX)).len(),
            8
        );
    }

    #[test]
    fn validation_rejects_unknown_names() {
        let bad_prefetcher = ExperimentSpec {
            name: "bad".into(),
            tables: vec![TableSpec {
                title: "t".into(),
                kind: TableKind::TraceGroupMeans {
                    row_header: "p".into(),
                    metric: Metric::Speedup,
                    rows: vec![Entry::plain("not-a-prefetcher")],
                    groups: vec![("AVG".into(), TraceSel::MainSuites)],
                    with_storage: false,
                },
            }],
        };
        let err = validate(&bad_prefetcher).unwrap_err();
        assert!(err.contains("unknown prefetcher"), "{err}");

        let bad_workload = ExperimentSpec {
            name: "bad".into(),
            tables: vec![TableSpec {
                title: "t".into(),
                kind: TableKind::WorkloadRows {
                    traces: TraceSel::List(vec!["nope".into()]),
                    metric: Metric::Speedup,
                    rows: vec![Entry::plain("gaze")],
                    normalize_to_first: false,
                    avg_label: None,
                },
            }],
        };
        let err = validate(&bad_workload).unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");

        let bad_cores = ExperimentSpec {
            name: "bad".into(),
            tables: vec![TableSpec {
                title: "t".into(),
                kind: TableKind::MulticoreScaling {
                    traces: TraceSel::Mix,
                    rows: vec![Entry::plain("gaze")],
                    cores: vec![16],
                },
            }],
        };
        let err = validate(&bad_cores).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn multi_level_names_split_and_validate() {
        assert_eq!(split_levels("gaze+bingo"), ("gaze", Some("bingo")));
        assert_eq!(split_levels("gaze"), ("gaze", None));
        assert!(validate_level_name("gaze+bingo").is_ok());
        assert!(validate_level_name("gaze+bingo+pmp").is_err());
        assert!(validate_level_name("gaze+nope").is_err());
    }

    #[test]
    fn every_builtin_spec_validates() {
        for name in builtin::builtin_names() {
            let spec = builtin::builtin_spec(name).expect("registered");
            validate(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
