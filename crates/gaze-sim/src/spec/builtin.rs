//! The paper's figures and tables as built-in [`ExperimentSpec`]s.
//!
//! Every entry of [`builtin_names`] resolves to a spec whose rendered
//! output is byte-identical to the historical hardcoded figure code
//! (pinned by `tests/golden_figures.rs` against committed fixtures).
//! `fig06`, `fig07` and `fig08` share one spec — the paper's main
//! comparison produces all four of its tables from the same runs.

use crate::factory::{HEAD_TO_HEAD, MAIN_PREFETCHERS, MULTICORE_PREFETCHERS};

use super::{
    ConfigAxis, Entry, ExperimentSpec, Metric, MixDef, MultiLevelRow, SummaryCol, SweepPoint,
    TableKind, TableSpec, TraceSel,
};
use workloads::Suite;

/// Every built-in experiment name runnable by `run --spec <name>` (and
/// the legacy `gaze-experiments <name>` positional form).
pub fn builtin_names() -> Vec<&'static str> {
    vec![
        "fig01", "fig04", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
        "fig14", "fig15", "fig16", "fig17", "fig18", "table1", "table4",
    ]
}

/// Resolves a built-in spec by name (`fig06`/`fig07`/`fig08` all resolve
/// to the shared main-comparison spec).
pub fn builtin_spec(name: &str) -> Option<ExperimentSpec> {
    match name {
        "fig01" => Some(fig01()),
        "fig04" => Some(fig04()),
        "fig06" | "fig07" | "fig08" => Some(fig06_08()),
        "fig09" => Some(fig09()),
        "fig10" => Some(fig10()),
        "fig11" => Some(fig11()),
        "fig12" => Some(fig12()),
        "fig13" => Some(fig13()),
        "fig14" => Some(fig14()),
        "fig15" => Some(fig15()),
        "fig16" => Some(fig16()),
        "fig17" => Some(fig17()),
        "fig18" => Some(fig18()),
        "table1" => Some(table1()),
        "table4" => Some(table4()),
        _ => None,
    }
}

fn plain(names: &[&str]) -> Vec<Entry> {
    names.iter().map(|n| Entry::plain(n)).collect()
}

fn spec(name: &str, tables: Vec<TableSpec>) -> ExperimentSpec {
    ExperimentSpec {
        name: name.to_string(),
        tables,
    }
}

fn table(title: &str, kind: TableKind) -> TableSpec {
    TableSpec {
        title: title.to_string(),
        kind,
    }
}

fn column(header: &str, metric: Metric, base: Option<&str>) -> SummaryCol {
    SummaryCol {
        header: header.to_string(),
        metric,
        base: base.map(str::to_string),
    }
}

/// Per-suite means of `metric` over the five main suites, plus their
/// overall `AVG` (the Fig. 6–9 bars).
fn suite_summary(row_header: &str, metric: Metric, rows: Vec<Entry>) -> TableKind {
    let mut groups: Vec<(String, TraceSel)> = Suite::main_suites()
        .into_iter()
        .map(|suite| (suite.label().to_string(), TraceSel::Suites(vec![suite])))
        .collect();
    groups.push(("AVG".to_string(), TraceSel::MainSuites));
    TableKind::TraceGroupMeans {
        row_header: row_header.to_string(),
        metric,
        rows,
        groups,
        with_storage: false,
    }
}

fn fig01() -> ExperimentSpec {
    spec(
        "fig01",
        vec![table(
            "Fig. 1 — context-based characterization: CloudSuite vs SPEC17 speedup and storage",
            TableKind::TraceGroupMeans {
                row_header: "scheme".to_string(),
                metric: Metric::Speedup,
                rows: vec![
                    Entry::labeled("Offset", "offset"),
                    Entry::labeled("Offset-opt (PMP)", "pmp"),
                    Entry::labeled("PC", "pc-pattern"),
                    Entry::labeled("PC-opt (DSPatch)", "dspatch"),
                    Entry::labeled("PC+Addr", "pc-addr-pattern"),
                    Entry::labeled("PC+Addr-opt (Bingo)", "bingo"),
                    Entry::labeled("Gaze", "gaze"),
                ],
                groups: vec![
                    (
                        "cloud_speedup".to_string(),
                        TraceSel::Suites(vec![Suite::Cloud]),
                    ),
                    (
                        "spec17_speedup".to_string(),
                        TraceSel::Suites(vec![Suite::Spec17]),
                    ),
                ],
                with_storage: true,
            },
        )],
    )
}

fn fig04() -> ExperimentSpec {
    spec(
        "fig04",
        vec![table(
            "Fig. 4 — number of aligned initial accesses required for a match",
            TableKind::VariantSummary {
                row_header: "initial_accesses".to_string(),
                traces: TraceSel::MainSuites,
                rows: vec![
                    Entry::labeled("1", "gaze-k1"),
                    Entry::labeled("2", "gaze-k2"),
                    Entry::labeled("3", "gaze-k3"),
                    Entry::labeled("4", "gaze-k4"),
                ],
                columns: vec![
                    column("norm_ipc", Metric::Speedup, Some("gaze-k1")),
                    column("accuracy", Metric::Accuracy, None),
                    column("coverage", Metric::Coverage, None),
                ],
            },
        )],
    )
}

fn fig06_08() -> ExperimentSpec {
    let rows = plain(&MAIN_PREFETCHERS);
    spec(
        "fig06-08",
        vec![
            table(
                "Fig. 6 — single-core speedup over no prefetching",
                suite_summary("prefetcher", Metric::Speedup, rows.clone()),
            ),
            table(
                "Fig. 7 — overall prefetch accuracy",
                suite_summary("prefetcher", Metric::Accuracy, rows.clone()),
            ),
            table(
                "Fig. 8 — LLC miss coverage",
                suite_summary("prefetcher", Metric::Coverage, rows.clone()),
            ),
            table(
                "Fig. 8 (lower bars) — late fraction of useful prefetches",
                TableKind::TraceGroupMeans {
                    row_header: "prefetcher".to_string(),
                    metric: Metric::Late,
                    rows,
                    groups: vec![("late_fraction".to_string(), TraceSel::MainSuites)],
                    with_storage: false,
                },
            ),
        ],
    )
}

fn fig09() -> ExperimentSpec {
    spec(
        "fig09",
        vec![table(
            "Fig. 9 — pattern characterization ablation (speedup)",
            suite_summary(
                "variant",
                Metric::Speedup,
                plain(&["offset", "gaze-pht", "gaze"]),
            ),
        )],
    )
}

fn fig10() -> ExperimentSpec {
    spec(
        "fig10",
        vec![table(
            "Fig. 10 — streaming module ablation (speedup)",
            TableKind::WorkloadRows {
                traces: TraceSel::Streaming,
                metric: Metric::Speedup,
                rows: plain(&["pht4ss", "sm4ss", "gaze"]),
                normalize_to_first: false,
                avg_label: Some("AVG".to_string()),
            },
        )],
    )
}

fn fig11() -> ExperimentSpec {
    spec(
        "fig11",
        vec![table(
            "Fig. 11 — vBerti vs PMP vs Gaze on representative traces (speedup)",
            TableKind::WorkloadRows {
                traces: TraceSel::MainSuites,
                metric: Metric::Speedup,
                rows: plain(&HEAD_TO_HEAD),
                normalize_to_first: false,
                avg_label: Some("avg_all".to_string()),
            },
        )],
    )
}

fn fig12() -> ExperimentSpec {
    spec(
        "fig12",
        vec![table(
            "Fig. 12 — GAP and QMM speedup (vBerti / PMP / Gaze)",
            TableKind::SuiteSections {
                traces: TraceSel::Suites(vec![Suite::Gap, Suite::Qmm]),
                metric: Metric::Speedup,
                rows: plain(&HEAD_TO_HEAD),
            },
        )],
    )
}

fn fig13() -> ExperimentSpec {
    let mut rows = Vec::new();
    for l1 in ["vberti", "pmp", "dspatch", "ipcp-l1", "gaze"] {
        for l2 in ["spp-ppf", "bingo"] {
            rows.push(MultiLevelRow {
                group: "group1".to_string(),
                l1: l1.to_string(),
                l2: Some(l2.to_string()),
            });
        }
    }
    for l2 in ["vberti", "sms", "bingo", "dspatch", "pmp", "gaze"] {
        rows.push(MultiLevelRow {
            group: "group2".to_string(),
            l1: "ip-stride".to_string(),
            l2: Some(l2.to_string()),
        });
    }
    rows.push(MultiLevelRow {
        group: "reference".to_string(),
        l1: "gaze".to_string(),
        l2: None,
    });
    spec(
        "fig13",
        vec![table(
            "Fig. 13 — multi-level prefetching (normalized IPC over no prefetching)",
            TableKind::MultiLevel {
                traces: TraceSel::Mix,
                rows,
            },
        )],
    )
}

fn fig14() -> ExperimentSpec {
    spec(
        "fig14",
        vec![table(
            "Fig. 14 — multi-core speedup over no prefetching",
            TableKind::MulticoreScaling {
                traces: TraceSel::Mix,
                rows: plain(&MULTICORE_PREFETCHERS),
                cores: vec![1, 2, 4, 8],
            },
        )],
    )
}

/// The five four-core mixes of Table VI (expressed with this repo's
/// workload names).
pub fn table_vi_mixes() -> Vec<MixDef> {
    [
        ("mix1", ["wrf_s", "Triangle", "lbm_s", "Triangle"]),
        ("mix2", ["GemsFDTD", "PageRank", "BFS", "BFS"]),
        ("mix3", ["bwaves_s", "Components", "wrf_s", "mcf_s"]),
        ("mix4", ["PageRank.D", "bwaves-06", "PageRank", "facesim"]),
        ("mix5", ["cassandra", "cassandra", "nutch", "cloud9"]),
    ]
    .into_iter()
    .map(|(name, workloads)| MixDef {
        name: name.to_string(),
        workloads: workloads.iter().map(|w| w.to_string()).collect(),
    })
    .collect()
}

fn fig15() -> ExperimentSpec {
    spec(
        "fig15",
        vec![table(
            "Fig. 15 — four-core heterogeneous mixes (per-core and average speedup)",
            TableKind::MixPerCore {
                mixes: table_vi_mixes(),
                rows: plain(&HEAD_TO_HEAD),
            },
        )],
    )
}

fn fig16() -> ExperimentSpec {
    let rows = plain(&["spp-ppf", "vberti", "bingo", "dspatch", "pmp", "gaze"]);
    let points = |labels: &[(&str, f64)]| -> Vec<SweepPoint> {
        labels
            .iter()
            .map(|(label, value)| SweepPoint {
                label: label.to_string(),
                value: *value,
            })
            .collect()
    };
    spec(
        "fig16",
        vec![
            table(
                "Fig. 16a — sensitivity to DRAM transfer rate (speedup)",
                TableKind::ConfigSweep {
                    traces: TraceSel::Mix,
                    metric: Metric::Speedup,
                    axis: ConfigAxis::DramMtps,
                    points: points(&[
                        ("800", 800.0),
                        ("1600", 1600.0),
                        ("3200", 3200.0),
                        ("6400", 6400.0),
                        ("12800", 12800.0),
                    ]),
                    rows: rows.clone(),
                },
            ),
            table(
                "Fig. 16b — sensitivity to LLC size per core (speedup)",
                TableKind::ConfigSweep {
                    traces: TraceSel::Mix,
                    metric: Metric::Speedup,
                    axis: ConfigAxis::LlcMb,
                    points: points(&[
                        ("0.5MB", 0.5),
                        ("1MB", 1.0),
                        ("2MB", 2.0),
                        ("4MB", 4.0),
                        ("8MB", 8.0),
                    ]),
                    rows: rows.clone(),
                },
            ),
            table(
                "Fig. 16c — sensitivity to L2C size (speedup)",
                TableKind::ConfigSweep {
                    traces: TraceSel::Mix,
                    metric: Metric::Speedup,
                    axis: ConfigAxis::L2Kb,
                    points: points(&[
                        ("128KB", 128.0),
                        ("256KB", 256.0),
                        ("512KB", 512.0),
                        ("1024KB", 1024.0),
                        ("1536KB", 1536.0),
                    ]),
                    rows,
                },
            ),
        ],
    )
}

fn fig17() -> ExperimentSpec {
    let normalized = |row_header: &str, rows: Vec<Entry>| TableKind::VariantSummary {
        row_header: row_header.to_string(),
        traces: TraceSel::Mix,
        rows,
        columns: vec![column("normalized_speedup", Metric::Speedup, Some("gaze"))],
    };
    spec(
        "fig17",
        vec![
            table(
                "Fig. 17a — Gaze region-size sensitivity (speedup normalized to 4KB)",
                normalized(
                    "region",
                    vec![
                        Entry::labeled("0.5KB", "gaze-region-512"),
                        Entry::labeled("1KB", "gaze-region-1024"),
                        Entry::labeled("2KB", "gaze-region-2048"),
                        Entry::labeled("4KB", "gaze"),
                    ],
                ),
            ),
            table(
                "Fig. 17b — Gaze PHT-size sensitivity (speedup normalized to 256 entries)",
                normalized(
                    "pht_entries",
                    vec![
                        Entry::labeled("128", "gaze-pht-128"),
                        Entry::labeled("256", "gaze-pht-256"),
                        Entry::labeled("512", "gaze-pht-512"),
                        Entry::labeled("1024", "gaze-pht-1024"),
                    ],
                ),
            ),
        ],
    )
}

fn fig18() -> ExperimentSpec {
    spec(
        "fig18",
        vec![table(
            "Fig. 18 — vGaze with larger region sizes (speedup normalized to 4KB)",
            TableKind::WorkloadRows {
                traces: TraceSel::Mix,
                metric: Metric::Speedup,
                rows: vec![
                    Entry::labeled("4KB", "gaze"),
                    Entry::labeled("8KB", "vgaze-8"),
                    Entry::labeled("16KB", "vgaze-16"),
                    Entry::labeled("32KB", "vgaze-32"),
                    Entry::labeled("64KB", "vgaze-64"),
                ],
                normalize_to_first: true,
                avg_label: None,
            },
        )],
    )
}

fn table1() -> ExperimentSpec {
    spec(
        "table1",
        vec![table(
            "Table I — Gaze storage requirements",
            TableKind::StorageBreakdown,
        )],
    )
}

fn table4() -> ExperimentSpec {
    spec(
        "table4",
        vec![table(
            "Table IV — storage overhead of the evaluated prefetchers",
            TableKind::StorageList {
                rows: plain(&[
                    "sms", "bingo", "dspatch", "pmp", "ipcp-l1", "spp-ppf", "vberti", "gaze",
                ]),
            },
        )],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_every_name() {
        for name in builtin_names() {
            assert!(builtin_spec(name).is_some(), "{name} must resolve");
        }
        assert!(builtin_spec("fig99").is_none());
    }

    #[test]
    fn main_comparison_names_share_one_spec() {
        let a = builtin_spec("fig06").expect("fig06");
        let b = builtin_spec("fig07").expect("fig07");
        let c = builtin_spec("fig08").expect("fig08");
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.tables.len(), 4);
    }

    #[test]
    fn table_vi_mixes_have_four_cores_each() {
        let mixes = table_vi_mixes();
        assert_eq!(mixes.len(), 5);
        for mix in mixes {
            assert_eq!(mix.workloads.len(), 4);
            for w in &mix.workloads {
                // Every referenced workload must be buildable.
                let _ = workloads::build_workload(w, 1000);
            }
        }
    }

    #[test]
    fn builtin_specs_round_trip_through_the_text_format() {
        for name in builtin_names() {
            let spec = builtin_spec(name).expect("registered");
            let text = crate::spec::text::to_text(&spec);
            let parsed = crate::spec::text::parse(&text)
                .unwrap_or_else(|e| panic!("{name} failed to re-parse: {e}\n{text}"));
            assert_eq!(parsed, spec, "{name} must round-trip");
        }
    }
}
