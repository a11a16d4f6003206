//! Rendering: job results → the tables a spec describes.
//!
//! Rendering is pure — it only reads [`JobResults`] — and reproduces the
//! paper figures' aggregation arithmetic exactly (same iteration order,
//! same float accumulation, same formatting), so a spec-rendered figure
//! is byte-identical to the pre-spec hardcoded code (pinned by the
//! golden-figure fixtures).

use crate::experiments::ExperimentScale;
use crate::factory::make_prefetcher;
use crate::report::{mean, Table};
use crate::runner::{RunParams, SingleRun};

use super::plan::{cycled_mix, sweep_params, JobResults};
use super::{
    resolve_workloads, selected_suites, suite_workloads, ExperimentSpec, Metric, TableKind,
    TableSpec,
};

/// Renders every table of a spec from executed job results.
pub fn render_spec(
    spec: &ExperimentSpec,
    scale: &ExperimentScale,
    results: &JobResults,
) -> Vec<Table> {
    spec.tables
        .iter()
        .map(|t| render_table(t, scale, results))
        .collect()
}

/// Projects one metric from a single run.
fn metric_of(run: &SingleRun, metric: Metric) -> f64 {
    match metric {
        Metric::Speedup => run.speedup(),
        Metric::Accuracy => run.accuracy(),
        Metric::Coverage => run.coverage(),
        Metric::Late => run.late_fraction(),
    }
}

/// Storage budget of a prefetcher in KB (Table IV's unit).
fn storage_kb(name: &str) -> f64 {
    make_prefetcher(name).storage_bits() as f64 / 8.0 / 1024.0
}

/// `value / base`, or 1.0 when the base is not positive.
fn ratio(value: f64, base: f64) -> f64 {
    if base > 0.0 {
        value / base
    } else {
        1.0
    }
}

/// Per-row values of `name` over `workloads` under `params`.
fn values_over(
    results: &JobResults,
    workloads: &[String],
    name: &str,
    metric: Metric,
    params: &RunParams,
) -> Vec<f64> {
    workloads
        .iter()
        .map(|w| metric_of(results.single(w, name, params), metric))
        .collect()
}

/// Renders one table from executed job results.
pub fn render_table(table: &TableSpec, scale: &ExperimentScale, results: &JobResults) -> Table {
    match &table.kind {
        TableKind::TraceGroupMeans {
            row_header,
            metric,
            rows,
            groups,
            with_storage,
        } => {
            let mut headers = vec![row_header.clone()];
            headers.extend(groups.iter().map(|(h, _)| h.clone()));
            if *with_storage {
                headers.push("storage_KB".to_string());
            }
            let refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut out = Table::new(&table.title, &refs);
            let group_workloads: Vec<Vec<String>> = groups
                .iter()
                .map(|(_, sel)| resolve_workloads(sel, scale))
                .collect();
            for entry in rows {
                let mut row = vec![entry.label.clone()];
                for workloads in &group_workloads {
                    let vals = values_over(results, workloads, &entry.name, *metric, &scale.params);
                    row.push(format!("{:.3}", mean(&vals)));
                }
                if *with_storage {
                    row.push(format!("{:.2}", storage_kb(&entry.name)));
                }
                out.push_row(row);
            }
            out
        }
        TableKind::VariantSummary {
            row_header,
            traces,
            rows,
            columns,
        } => {
            let mut headers = vec![row_header.clone()];
            headers.extend(columns.iter().map(|c| c.header.clone()));
            let refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut out = Table::new(&table.title, &refs);
            let workloads = resolve_workloads(traces, scale);
            let avg = |name: &str, metric: Metric| {
                mean(&values_over(
                    results,
                    &workloads,
                    name,
                    metric,
                    &scale.params,
                ))
            };
            for entry in rows {
                let mut row = vec![entry.label.clone()];
                for col in columns {
                    let value = avg(&entry.name, col.metric);
                    let value = match &col.base {
                        Some(base) => ratio(value, avg(base, col.metric)),
                        None => value,
                    };
                    row.push(format!("{value:.3}"));
                }
                out.push_row(row);
            }
            out
        }
        TableKind::WorkloadRows {
            traces,
            metric,
            rows,
            normalize_to_first,
            avg_label,
        } => {
            let mut headers = vec!["workload".to_string()];
            headers.extend(rows.iter().map(|e| e.label.clone()));
            let refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut out = Table::new(&table.title, &refs);
            let workloads = resolve_workloads(traces, scale);
            let columns: Vec<Vec<f64>> = rows
                .iter()
                .map(|e| values_over(results, &workloads, &e.name, *metric, &scale.params))
                .collect();
            let mut sums = vec![Vec::new(); rows.len()];
            for (wi, workload) in workloads.iter().enumerate() {
                let mut row = vec![workload.clone()];
                let base = columns[0][wi];
                for (ci, column) in columns.iter().enumerate() {
                    let v = if *normalize_to_first {
                        ratio(column[wi], base)
                    } else {
                        column[wi]
                    };
                    sums[ci].push(v);
                    row.push(format!("{v:.3}"));
                }
                out.push_row(row);
            }
            if let Some(label) = avg_label {
                let mut row = vec![label.clone()];
                for vals in &sums {
                    row.push(format!("{:.3}", mean(vals)));
                }
                out.push_row(row);
            }
            out
        }
        TableKind::SuiteSections {
            traces,
            metric,
            rows,
        } => {
            let mut headers = vec!["suite".to_string(), "workload".to_string()];
            headers.extend(rows.iter().map(|e| e.label.clone()));
            let refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut out = Table::new(&table.title, &refs);
            let suites = selected_suites(traces).expect("validated suite selection");
            for suite in suites {
                let workloads = suite_workloads(suite, scale);
                let columns: Vec<Vec<f64>> = rows
                    .iter()
                    .map(|e| values_over(results, &workloads, &e.name, *metric, &scale.params))
                    .collect();
                let mut sums = vec![0.0f64; rows.len()];
                for (wi, workload) in workloads.iter().enumerate() {
                    let mut row = vec![suite.label().to_string(), workload.clone()];
                    for (ci, column) in columns.iter().enumerate() {
                        sums[ci] += column[wi];
                        row.push(format!("{:.3}", column[wi]));
                    }
                    out.push_row(row);
                }
                let n = workloads.len() as f64;
                let mut row = vec![
                    suite.label().to_string(),
                    format!("avg_{}", suite.label().to_lowercase()),
                ];
                for sum in &sums {
                    row.push(format!("{:.3}", sum / n));
                }
                out.push_row(row);
            }
            out
        }
        TableKind::MultiLevel { traces, rows } => {
            let mut out = Table::new(&table.title, &["group", "l1", "l2", "speedup"]);
            let workloads = resolve_workloads(traces, scale);
            for row in rows {
                let name = crate::runner::multi_level_name(&row.l1, row.l2.as_deref());
                let speedups: Vec<f64> = workloads
                    .iter()
                    .map(|w| results.single(w, &name, &scale.params).speedup())
                    .collect();
                out.push_row(vec![
                    row.group.clone(),
                    row.l1.clone(),
                    row.l2.clone().unwrap_or_else(|| "-".to_string()),
                    format!("{:.3}", mean(&speedups)),
                ]);
            }
            out
        }
        TableKind::MulticoreScaling {
            traces,
            rows,
            cores,
        } => {
            let mut out = Table::new(&table.title, &["prefetcher", "mix", "cores", "speedup"]);
            let workloads = resolve_workloads(traces, scale);
            for entry in rows {
                for &c in cores {
                    let mut homo = Vec::new();
                    for workload in &workloads {
                        let mix = vec![workload.clone(); c];
                        let with = results.mix(&mix, &entry.name, &scale.params);
                        let base = results.mix(&mix, "none", &scale.params);
                        homo.push(with.speedup_over(base));
                    }
                    let het = cycled_mix(&workloads, c);
                    let with = results.mix(&het, &entry.name, &scale.params);
                    let base = results.mix(&het, "none", &scale.params);
                    let het_speedup = with.speedup_over(base);
                    out.push_row(vec![
                        entry.label.clone(),
                        "homogeneous".to_string(),
                        c.to_string(),
                        format!("{:.3}", mean(&homo)),
                    ]);
                    out.push_row(vec![
                        entry.label.clone(),
                        "heterogeneous".to_string(),
                        c.to_string(),
                        format!("{het_speedup:.3}"),
                    ]);
                }
            }
            out
        }
        TableKind::MixPerCore { mixes, rows } => {
            let cores = mixes[0].workloads.len();
            let mut headers = vec!["mix".to_string(), "prefetcher".to_string()];
            headers.extend((0..cores).map(|c| format!("c{c}")));
            headers.push("avg".to_string());
            let refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut out = Table::new(&table.title, &refs);
            for mix in mixes {
                for entry in rows {
                    let with = results.mix(&mix.workloads, &entry.name, &scale.params);
                    let base = results.mix(&mix.workloads, "none", &scale.params);
                    let mut row = vec![mix.name.clone(), entry.label.clone()];
                    for core in 0..cores {
                        let s = with.cores[core].speedup_over(&base.cores[core]);
                        row.push(format!("{s:.3}"));
                    }
                    row.push(format!("{:.3}", with.speedup_over(base)));
                    out.push_row(row);
                }
            }
            out
        }
        TableKind::ConfigSweep {
            traces,
            metric,
            axis,
            points,
            rows,
        } => {
            let mut headers = vec!["prefetcher".to_string()];
            headers.extend(points.iter().map(|p| p.label.clone()));
            let refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut out = Table::new(&table.title, &refs);
            let workloads = resolve_workloads(traces, scale);
            for entry in rows {
                let vals: Vec<f64> = points
                    .iter()
                    .map(|point| {
                        let params = sweep_params(scale, *axis, point.value);
                        mean(&values_over(
                            results,
                            &workloads,
                            &entry.name,
                            *metric,
                            &params,
                        ))
                    })
                    .collect();
                out.push_values(&entry.label, &vals);
            }
            out
        }
        TableKind::StorageBreakdown => {
            let cfg = gaze::GazeConfig::paper_default();
            let s = cfg.storage_breakdown_bits();
            let mut out = Table::new(&table.title, &["structure", "bytes"]);
            for (name, bits) in [
                ("FT", s.ft),
                ("AT", s.at),
                ("PHT", s.pht),
                ("DPCT", s.dpct),
                ("PB", s.pb),
                ("DC", s.dc),
            ] {
                out.push_row(vec![name.to_string(), format!("{}", bits / 8)]);
            }
            out.push_row(vec![
                "Total (KB)".to_string(),
                format!("{:.2}", s.total_kib()),
            ]);
            out
        }
        TableKind::StorageList { rows } => {
            let mut out = Table::new(&table.title, &["prefetcher", "KB"]);
            for entry in rows {
                out.push_row(vec![
                    entry.label.clone(),
                    format!("{:.2}", storage_kb(&entry.name)),
                ]);
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{plan_specs, Entry, MultiLevelRow, TraceSel};
    use sim_core::stats::CoreStats;

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale {
            params: RunParams {
                warmup: 1_000,
                measured: 4_000,
                ..RunParams::test()
            },
            workloads_per_suite: 1,
        }
    }

    #[test]
    fn static_tables_render_without_any_jobs() {
        let spec = ExperimentSpec {
            name: "static".into(),
            tables: vec![
                TableSpec {
                    title: "Table I — Gaze storage requirements".into(),
                    kind: TableKind::StorageBreakdown,
                },
                TableSpec {
                    title: "storage".into(),
                    kind: TableKind::StorageList {
                        rows: vec![Entry::plain("gaze"), Entry::plain("bingo")],
                    },
                },
            ],
        };
        let scale = tiny_scale();
        let plan = plan_specs(&[&spec], &scale);
        assert!(plan.is_empty());
        let tables = crate::spec::run_spec(&spec, &scale);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), 7);
        assert_eq!(tables[1].len(), 2);
    }

    #[test]
    fn workload_rows_render_normalization_and_avg() {
        let spec = ExperimentSpec {
            name: "rows".into(),
            tables: vec![TableSpec {
                title: "t".into(),
                kind: TableKind::WorkloadRows {
                    traces: TraceSel::List(vec!["bwaves_s".into(), "mcf_s".into()]),
                    metric: Metric::Speedup,
                    rows: vec![Entry::plain("gaze"), Entry::plain("pmp")],
                    normalize_to_first: true,
                    avg_label: Some("AVG".into()),
                },
            }],
        };
        let scale = tiny_scale();
        let tables = crate::spec::run_spec(&spec, &scale);
        assert_eq!(tables.len(), 1);
        let csv = tables[0].to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "workload,gaze,pmp");
        assert_eq!(lines.len(), 4); // header + 2 workloads + AVG
        assert!(lines[1].starts_with("bwaves_s,1.000,"), "{csv}");
        assert!(lines[3].starts_with("AVG,1.000,"), "{csv}");
    }

    /// A zero-IPC baseline counts as speedup 1.0 in a multi-level row,
    /// as in every other single-core table (`CoreStats::speedup_over`),
    /// rather than dropping the workload from the mean.
    #[test]
    fn multi_level_counts_a_zero_ipc_baseline_as_no_speedup() {
        let scale = tiny_scale();
        let core = |instructions, cycles| CoreStats {
            instructions,
            cycles,
            ..CoreStats::default()
        };
        let mut results = JobResults::default();
        for (workload, stats, baseline) in [
            ("bwaves_s", core(3_000, 1_000), core(1_000, 1_000)),
            ("mcf_s", core(1_000, 1_000), core(0, 0)),
        ] {
            let run = SingleRun {
                workload: workload.to_string(),
                prefetcher: "gaze".to_string(),
                stats,
                baseline,
            };
            results.insert_single("gaze", &scale.params, run);
        }
        let table = TableSpec {
            title: "t".into(),
            kind: TableKind::MultiLevel {
                traces: TraceSel::List(vec!["bwaves_s".into(), "mcf_s".into()]),
                rows: vec![MultiLevelRow {
                    group: "L1".into(),
                    l1: "gaze".into(),
                    l2: None,
                }],
            },
        };
        let csv = render_table(&table, &scale, &results).to_csv();
        assert_eq!(csv, "group,l1,l2,speedup\nL1,gaze,-,2.000\n", "{csv}");
    }
}
