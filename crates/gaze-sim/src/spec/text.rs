//! The spec text format: a line-oriented, dependency-free serialization
//! of [`ExperimentSpec`] (reference in `docs/EXPERIMENTS.md`).
//!
//! ```text
//! spec l2-sweep
//!
//! table
//! title L2 size sweep over two suites (speedup)
//! kind config-sweep
//! traces suites:SPEC17,Cloud
//! metric speedup
//! axis l2-kb
//! point 256KB = 256
//! point 1024KB = 1024
//! row gaze
//! row pmp
//! end
//! ```
//!
//! Lines hold one `directive [argument]` each; `#` starts a comment
//! line; blank lines separate sections. [`parse`] rejects unknown
//! directives, kinds, metrics, axes, suites, prefetchers and workloads
//! loudly (with line numbers), and [`to_text`] emits the canonical form,
//! so `parse(to_text(spec)) == spec` for every valid spec.

use workloads::Suite;

use super::{
    validate, ConfigAxis, Entry, ExperimentSpec, Metric, MixDef, MultiLevelRow, SummaryCol,
    SweepPoint, TableKind, TableSpec, TraceSel,
};

/// Serializes a spec into its canonical text form.
pub fn to_text(spec: &ExperimentSpec) -> String {
    let mut out = String::new();
    out.push_str(&format!("spec {}\n", spec.name));
    for table in &spec.tables {
        out.push('\n');
        out.push_str("table\n");
        out.push_str(&format!("title {}\n", table.title));
        out.push_str(&format!("kind {}\n", table.kind.name()));
        write_kind(&mut out, &table.kind);
        out.push_str("end\n");
    }
    out
}

fn write_entries(out: &mut String, rows: &[Entry]) {
    for entry in rows {
        if entry.label == entry.name {
            out.push_str(&format!("row {}\n", entry.name));
        } else {
            out.push_str(&format!("row {} = {}\n", entry.label, entry.name));
        }
    }
}

fn write_traces(out: &mut String, sel: &TraceSel) {
    out.push_str(&format!("traces {}\n", traces_to_string(sel)));
}

fn traces_to_string(sel: &TraceSel) -> String {
    match sel {
        TraceSel::Suites(suites) => format!(
            "suites:{}",
            suites
                .iter()
                .map(|s| s.label())
                .collect::<Vec<_>>()
                .join(",")
        ),
        TraceSel::MainSuites => "main".to_string(),
        TraceSel::Mix => "mix".to_string(),
        TraceSel::Streaming => "streaming".to_string(),
        TraceSel::List(names) => format!("list:{}", names.join(",")),
    }
}

fn write_kind(out: &mut String, kind: &TableKind) {
    match kind {
        TableKind::TraceGroupMeans {
            row_header,
            metric,
            rows,
            groups,
            with_storage,
        } => {
            out.push_str(&format!("row-header {row_header}\n"));
            out.push_str(&format!("metric {}\n", metric.name()));
            if *with_storage {
                out.push_str("with-storage\n");
            }
            for (header, sel) in groups {
                out.push_str(&format!("group {header} = {}\n", traces_to_string(sel)));
            }
            write_entries(out, rows);
        }
        TableKind::VariantSummary {
            row_header,
            traces,
            rows,
            columns,
        } => {
            out.push_str(&format!("row-header {row_header}\n"));
            write_traces(out, traces);
            for col in columns {
                out.push_str(&format!("column {} = {}", col.header, col.metric.name()));
                if let Some(base) = &col.base {
                    out.push_str(&format!(" / {base}"));
                }
                out.push('\n');
            }
            write_entries(out, rows);
        }
        TableKind::WorkloadRows {
            traces,
            metric,
            rows,
            normalize_to_first,
            avg_label,
        } => {
            write_traces(out, traces);
            out.push_str(&format!("metric {}\n", metric.name()));
            if *normalize_to_first {
                out.push_str("normalize-first\n");
            }
            if let Some(label) = avg_label {
                out.push_str(&format!("avg-row {label}\n"));
            }
            write_entries(out, rows);
        }
        TableKind::SuiteSections {
            traces,
            metric,
            rows,
        } => {
            write_traces(out, traces);
            out.push_str(&format!("metric {}\n", metric.name()));
            write_entries(out, rows);
        }
        TableKind::MultiLevel { traces, rows } => {
            write_traces(out, traces);
            for row in rows {
                match &row.l2 {
                    Some(l2) => out.push_str(&format!("level {} = {} + {l2}\n", row.group, row.l1)),
                    None => out.push_str(&format!("level {} = {}\n", row.group, row.l1)),
                }
            }
        }
        TableKind::MulticoreScaling {
            traces,
            rows,
            cores,
        } => {
            write_traces(out, traces);
            let cores: Vec<String> = cores.iter().map(usize::to_string).collect();
            out.push_str(&format!("cores {}\n", cores.join(" ")));
            write_entries(out, rows);
        }
        TableKind::MixPerCore { mixes, rows } => {
            for mix in mixes {
                out.push_str(&format!(
                    "mixdef {} = {}\n",
                    mix.name,
                    mix.workloads.join(",")
                ));
            }
            write_entries(out, rows);
        }
        TableKind::ConfigSweep {
            traces,
            metric,
            axis,
            points,
            rows,
        } => {
            write_traces(out, traces);
            out.push_str(&format!("metric {}\n", metric.name()));
            out.push_str(&format!("axis {}\n", axis.name()));
            for point in points {
                out.push_str(&format!("point {} = {:?}\n", point.label, point.value));
            }
            write_entries(out, rows);
        }
        TableKind::StorageBreakdown => {}
        TableKind::StorageList { rows } => {
            write_entries(out, rows);
        }
    }
}

/// Parses (and [`validate`]s) a spec from its text form. Errors carry the
/// offending line number and value.
pub fn parse(text: &str) -> Result<ExperimentSpec, String> {
    let mut name: Option<String> = None;
    let mut tables: Vec<TableSpec> = Vec::new();
    let mut builder: Option<TableBuilder> = None;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (directive, rest) = match line.split_once(char::is_whitespace) {
            Some((d, r)) => (d, r.trim()),
            None => (line, ""),
        };
        let err = |msg: String| format!("line {line_no}: {msg}");
        match directive {
            "spec" => {
                if name.is_some() {
                    return Err(err("duplicate 'spec' line".to_string()));
                }
                if rest.is_empty() {
                    return Err(err("'spec' needs a name".to_string()));
                }
                name = Some(rest.to_string());
            }
            "table" => {
                if builder.is_some() {
                    return Err(err(
                        "'table' inside an unclosed table (missing 'end')".into()
                    ));
                }
                if !rest.is_empty() {
                    return Err(err("'table' takes no argument".to_string()));
                }
                builder = Some(TableBuilder::default());
            }
            "end" => {
                let b = builder
                    .take()
                    .ok_or_else(|| err("'end' outside a table".to_string()))?;
                tables.push(b.build().map_err(err)?);
            }
            _ => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err(format!("'{directive}' outside a table")))?;
                b.directive(directive, rest).map_err(err)?;
            }
        }
    }
    if builder.is_some() {
        return Err("unexpected end of input: table missing 'end'".to_string());
    }
    let spec = ExperimentSpec {
        name: name.ok_or("missing 'spec <name>' line")?,
        tables,
    };
    validate(&spec)?;
    Ok(spec)
}

fn parse_traces(s: &str) -> Result<TraceSel, String> {
    if let Some(rest) = s.strip_prefix("suites:") {
        let mut suites = Vec::new();
        for label in rest.split(',').filter(|p| !p.is_empty()) {
            suites
                .push(Suite::from_label(label).ok_or_else(|| format!("unknown suite '{label}'"))?);
        }
        return Ok(TraceSel::Suites(suites));
    }
    if let Some(rest) = s.strip_prefix("list:") {
        return Ok(TraceSel::List(
            rest.split(',')
                .filter(|p| !p.is_empty())
                .map(str::to_string)
                .collect(),
        ));
    }
    match s {
        "main" => Ok(TraceSel::MainSuites),
        "mix" => Ok(TraceSel::Mix),
        "streaming" => Ok(TraceSel::Streaming),
        other => Err(format!(
            "unknown trace selection '{other}' \
             (main|mix|streaming|suites:...|list:...)"
        )),
    }
}

fn parse_metric(s: &str) -> Result<Metric, String> {
    Metric::parse(s).ok_or_else(|| format!("unknown metric '{s}' (speedup|accuracy|coverage|late)"))
}

/// Stores a scalar directive's value, rejecting a second occurrence —
/// last-wins would let a leftover line silently change what a sweep
/// runs.
fn set_once<T>(slot: &mut Option<T>, value: T, directive: &str) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!("duplicate '{directive}' directive"));
    }
    *slot = Some(value);
    Ok(())
}

fn split_assignment(rest: &str, what: &str) -> Result<(String, String), String> {
    let (lhs, rhs) = rest
        .split_once(" = ")
        .ok_or_else(|| format!("'{what}' needs the form '{what} <label> = <value>'"))?;
    Ok((lhs.trim().to_string(), rhs.trim().to_string()))
}

/// Every table kind with the directives it accepts: the one list `build`
/// resolves a `kind` line against.
const KINDS: [(&str, &[&str]); 10] = [
    (
        "trace-group-means",
        &["row-header", "metric", "with-storage", "group", "row"],
    ),
    (
        "variant-summary",
        &["row-header", "traces", "column", "row"],
    ),
    (
        "workload-rows",
        &["traces", "metric", "normalize-first", "avg-row", "row"],
    ),
    ("suite-sections", &["traces", "metric", "row"]),
    ("multi-level", &["traces", "level"]),
    ("multicore-scaling", &["traces", "cores", "row"]),
    ("mix-per-core", &["mixdef", "row"]),
    (
        "config-sweep",
        &["traces", "metric", "axis", "point", "row"],
    ),
    ("storage-breakdown", &[]),
    ("storage-list", &["row"]),
];

/// Accumulates one table's directives; `build` assembles and checks them
/// against the declared kind.
#[derive(Default)]
struct TableBuilder {
    title: Option<String>,
    kind: Option<String>,
    row_header: Option<String>,
    metric: Option<Metric>,
    traces: Option<TraceSel>,
    rows: Vec<Entry>,
    groups: Vec<(String, TraceSel)>,
    columns: Vec<SummaryCol>,
    levels: Vec<MultiLevelRow>,
    cores: Option<Vec<usize>>,
    mixes: Vec<MixDef>,
    axis: Option<ConfigAxis>,
    points: Vec<SweepPoint>,
    normalize_first: bool,
    avg_label: Option<String>,
    with_storage: bool,
    provided: Vec<&'static str>,
}

impl TableBuilder {
    fn directive(&mut self, directive: &str, rest: &str) -> Result<(), String> {
        let needs_arg = |rest: &str, d: &str| -> Result<(), String> {
            if rest.is_empty() {
                Err(format!("'{d}' needs an argument"))
            } else {
                Ok(())
            }
        };
        match directive {
            "title" => {
                needs_arg(rest, "title")?;
                set_once(&mut self.title, rest.to_string(), "title")?;
            }
            "kind" => {
                needs_arg(rest, "kind")?;
                set_once(&mut self.kind, rest.to_string(), "kind")?;
            }
            "row-header" => {
                needs_arg(rest, "row-header")?;
                self.set("row-header");
                set_once(&mut self.row_header, rest.to_string(), "row-header")?;
            }
            "metric" => {
                self.set("metric");
                set_once(&mut self.metric, parse_metric(rest)?, "metric")?;
            }
            "traces" => {
                self.set("traces");
                let sel = parse_traces(rest)?;
                set_once(&mut self.traces, sel, "traces")?;
            }
            "row" => {
                needs_arg(rest, "row")?;
                self.set("row");
                let entry = match rest.split_once(" = ") {
                    Some((label, name)) => Entry::labeled(label.trim(), name.trim()),
                    None => Entry::plain(rest),
                };
                self.rows.push(entry);
            }
            "group" => {
                let (header, sel) = split_assignment(rest, "group")?;
                self.set("group");
                self.groups.push((header, parse_traces(&sel)?));
            }
            "column" => {
                let (header, value) = split_assignment(rest, "column")?;
                self.set("column");
                let (metric, base) = match value.split_once('/') {
                    Some((metric, base)) => (metric.trim(), Some(base.trim().to_string())),
                    None => (value.as_str(), None),
                };
                self.columns.push(SummaryCol {
                    header,
                    metric: parse_metric(metric)?,
                    base,
                });
            }
            "level" => {
                let (group, combo) = split_assignment(rest, "level")?;
                self.set("level");
                let (l1, l2) = match combo.split_once('+') {
                    Some((l1, l2)) => (l1.trim().to_string(), Some(l2.trim().to_string())),
                    None => (combo, None),
                };
                self.levels.push(MultiLevelRow { group, l1, l2 });
            }
            "cores" => {
                needs_arg(rest, "cores")?;
                self.set("cores");
                let mut cores = Vec::new();
                for part in rest.split_whitespace() {
                    cores.push(
                        part.parse::<usize>()
                            .map_err(|_| format!("core count '{part}' is not a number"))?,
                    );
                }
                set_once(&mut self.cores, cores, "cores")?;
            }
            "mixdef" => {
                let (name, list) = split_assignment(rest, "mixdef")?;
                self.set("mixdef");
                self.mixes.push(MixDef {
                    name,
                    workloads: list
                        .split(',')
                        .filter(|p| !p.is_empty())
                        .map(|p| p.trim().to_string())
                        .collect(),
                });
            }
            "axis" => {
                self.set("axis");
                let axis = ConfigAxis::parse(rest).ok_or_else(|| {
                    format!("unknown config axis '{rest}' (dram-mtps|llc-mb|l2-kb)")
                })?;
                set_once(&mut self.axis, axis, "axis")?;
            }
            "point" => {
                let (label, value) = split_assignment(rest, "point")?;
                self.set("point");
                let value = value
                    .parse::<f64>()
                    .map_err(|_| format!("sweep point value '{value}' is not a number"))?;
                self.points.push(SweepPoint { label, value });
            }
            "normalize-first" => {
                if !rest.is_empty() {
                    return Err("'normalize-first' takes no argument".to_string());
                }
                if self.normalize_first {
                    return Err("duplicate 'normalize-first' directive".to_string());
                }
                self.set("normalize-first");
                self.normalize_first = true;
            }
            "avg-row" => {
                needs_arg(rest, "avg-row")?;
                self.set("avg-row");
                set_once(&mut self.avg_label, rest.to_string(), "avg-row")?;
            }
            "with-storage" => {
                if !rest.is_empty() {
                    return Err("'with-storage' takes no argument".to_string());
                }
                if self.with_storage {
                    return Err("duplicate 'with-storage' directive".to_string());
                }
                self.set("with-storage");
                self.with_storage = true;
            }
            other => return Err(format!("unknown directive '{other}'")),
        }
        Ok(())
    }

    fn set(&mut self, directive: &'static str) {
        if !self.provided.contains(&directive) {
            self.provided.push(directive);
        }
    }

    fn build(self) -> Result<TableSpec, String> {
        let title = self.title.clone().ok_or("table is missing 'title'")?;
        let kind_name = self.kind.clone().ok_or("table is missing 'kind'")?;
        let (_, allowed) = KINDS
            .iter()
            .find(|(kind, _)| *kind == kind_name)
            .ok_or_else(|| {
                let names: Vec<&str> = KINDS.iter().map(|(kind, _)| *kind).collect();
                format!("unknown table kind '{kind_name}' ({})", names.join("|"))
            })?;
        for directive in &self.provided {
            if !allowed.contains(directive) {
                return Err(format!(
                    "directive '{directive}' does not apply to kind '{kind_name}'"
                ));
            }
        }
        let kind = self.assemble(&kind_name)?;
        Ok(TableSpec { title, kind })
    }

    fn assemble(self, kind: &str) -> Result<TableKind, String> {
        let missing = |what: &str| format!("kind '{kind}' requires '{what}'");
        match kind {
            "trace-group-means" => Ok(TableKind::TraceGroupMeans {
                row_header: self.row_header.ok_or_else(|| missing("row-header"))?,
                metric: self.metric.ok_or_else(|| missing("metric"))?,
                rows: self.rows,
                groups: self.groups,
                with_storage: self.with_storage,
            }),
            "variant-summary" => Ok(TableKind::VariantSummary {
                row_header: self.row_header.ok_or_else(|| missing("row-header"))?,
                traces: self.traces.ok_or_else(|| missing("traces"))?,
                rows: self.rows,
                columns: self.columns,
            }),
            "workload-rows" => Ok(TableKind::WorkloadRows {
                traces: self.traces.ok_or_else(|| missing("traces"))?,
                metric: self.metric.ok_or_else(|| missing("metric"))?,
                rows: self.rows,
                normalize_to_first: self.normalize_first,
                avg_label: self.avg_label,
            }),
            "suite-sections" => Ok(TableKind::SuiteSections {
                traces: self.traces.ok_or_else(|| missing("traces"))?,
                metric: self.metric.ok_or_else(|| missing("metric"))?,
                rows: self.rows,
            }),
            "multi-level" => Ok(TableKind::MultiLevel {
                traces: self.traces.ok_or_else(|| missing("traces"))?,
                rows: self.levels,
            }),
            "multicore-scaling" => Ok(TableKind::MulticoreScaling {
                traces: self.traces.ok_or_else(|| missing("traces"))?,
                rows: self.rows,
                cores: self.cores.ok_or_else(|| missing("cores"))?,
            }),
            "mix-per-core" => Ok(TableKind::MixPerCore {
                mixes: self.mixes,
                rows: self.rows,
            }),
            "config-sweep" => Ok(TableKind::ConfigSweep {
                traces: self.traces.ok_or_else(|| missing("traces"))?,
                metric: self.metric.ok_or_else(|| missing("metric"))?,
                axis: self.axis.ok_or_else(|| missing("axis"))?,
                points: self.points,
                rows: self.rows,
            }),
            "storage-breakdown" => Ok(TableKind::StorageBreakdown),
            "storage-list" => Ok(TableKind::StorageList { rows: self.rows }),
            other => Err(format!("unknown table kind '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SWEEP: &str = "\
# A custom sweep, not in the paper.
spec l2-sweep

table
title L2 size sweep over two suites (speedup)
kind config-sweep
traces suites:SPEC17,Cloud
metric speedup
axis l2-kb
point 256KB = 256
point 1024KB = 1024
row gaze
row pmp
end
";

    /// The directives of a smallest valid table of `kind`.
    fn minimal_table(kind: &str) -> &'static str {
        match kind {
            "trace-group-means" => {
                "row-header prefetcher\nmetric speedup\ngroup AVG = main\nrow gaze"
            }
            "variant-summary" => {
                "row-header variant\ntraces main\ncolumn speedup = speedup\nrow gaze"
            }
            "workload-rows" => "traces main\nmetric speedup\nrow gaze",
            "suite-sections" => "traces main\nmetric speedup\nrow gaze",
            "multi-level" => "traces main\nlevel L1 = gaze",
            "multicore-scaling" => "traces mix\ncores 2\nrow gaze",
            "mix-per-core" => "mixdef m = bwaves_s,mcf_s\nrow gaze",
            "config-sweep" => {
                "traces main\nmetric speedup\naxis l2-kb\npoint 256KB = 256\nrow gaze"
            }
            "storage-breakdown" => "",
            "storage-list" => "row gaze",
            other => panic!("no minimal table for kind '{other}': add one here"),
        }
    }

    /// `KINDS` (what `build` accepts), `assemble` and `TableKind::name`
    /// (what `to_text` writes) are three lists of the same names: a
    /// minimal table of every listed kind parses to a kind that names
    /// itself the same way, and re-parses from its canonical text.
    #[test]
    fn every_listed_kind_parses_to_the_kind_of_that_name() {
        for (kind, _) in KINDS {
            let text = format!(
                "spec kinds\n\ntable\ntitle t\nkind {kind}\n{}\nend\n",
                minimal_table(kind)
            );
            let spec = parse(&text).unwrap_or_else(|e| panic!("kind '{kind}': {e}"));
            assert_eq!(spec.tables[0].kind.name(), kind);
            assert_eq!(
                parse(&to_text(&spec)),
                Ok(spec),
                "kind '{kind}' round-trips"
            );
        }
    }

    #[test]
    fn a_custom_sweep_parses_and_round_trips() {
        let spec = parse(SWEEP).expect("valid spec");
        assert_eq!(spec.name, "l2-sweep");
        assert_eq!(spec.tables.len(), 1);
        let text = to_text(&spec);
        let again = parse(&text).expect("canonical form re-parses");
        assert_eq!(again, spec);
    }

    #[test]
    fn unknown_values_are_rejected_loudly() {
        let cases: &[(&str, &str)] = &[
            ("kind config-sweep", "kind frobnicate"),
            ("metric speedup", "metric latency"),
            ("axis l2-kb", "axis rob-entries"),
            ("traces suites:SPEC17,Cloud", "traces suites:SPEC95"),
            ("row gaze", "row warp-drive"),
            ("point 256KB = 256", "point 256KB = big"),
        ];
        for (from, to) in cases {
            let text = SWEEP.replace(from, to);
            let err = parse(&text).expect_err(to);
            assert!(
                err.contains("unknown") || err.contains("not a number"),
                "{to}: {err}"
            );
        }
        // A directive foreign to the kind is rejected even when well-formed.
        let text = SWEEP.replace("axis l2-kb", "axis l2-kb\nrow-header p");
        let err = parse(&text).expect_err("foreign directive");
        assert!(err.contains("does not apply"), "{err}");
        // Unknown workloads in explicit lists are rejected.
        let text = SWEEP.replace("traces suites:SPEC17,Cloud", "traces list:bwaves_s,nope");
        let err = parse(&text).expect_err("unknown workload");
        assert!(err.contains("unknown workload"), "{err}");
        // Unknown directives are rejected.
        let text = SWEEP.replace("metric speedup", "metric speedup\nfrobnicate 3");
        let err = parse(&text).expect_err("unknown directive");
        assert!(err.contains("unknown directive"), "{err}");
    }

    #[test]
    fn duplicate_scalar_directives_are_rejected_not_last_wins() {
        // A leftover `metric` line from an edit must not silently lose to
        // the later one.
        for (from, dup) in [
            ("metric speedup", "metric speedup\nmetric accuracy"),
            (
                "traces suites:SPEC17,Cloud",
                "traces suites:SPEC17,Cloud\ntraces mix",
            ),
            ("axis l2-kb", "axis l2-kb\naxis dram-mtps"),
            (
                "title L2 size sweep over two suites (speedup)",
                "title a\ntitle b",
            ),
            ("kind config-sweep", "kind config-sweep\nkind storage-list"),
        ] {
            let text = SWEEP.replace(from, dup);
            let err = parse(&text).expect_err(dup);
            assert!(err.contains("duplicate"), "{dup}: {err}");
        }
    }

    #[test]
    fn structural_mistakes_are_rejected() {
        assert!(parse("").is_err());
        assert!(parse("table\ntitle t\nkind storage-breakdown\nend\n").is_err());
        assert!(parse("spec x\ntable\ntitle t\nkind storage-breakdown\n").is_err());
        assert!(parse("spec x\ntitle orphan\n").is_err());
        assert!(parse("spec x\ntable\nkind storage-breakdown\nend\n").is_err());
        assert!(parse("spec x\n").is_err(), "specs need at least one table");
        let nested = "spec x\ntable\ntable\n";
        assert!(parse(nested).is_err());
    }

    #[test]
    fn labeled_rows_and_levels_round_trip() {
        let text = "\
spec labels

table
title Multi-level rows
kind multi-level
traces mix
level group1 = vberti + spp-ppf
level reference = gaze
end

table
title Labeled entries
kind workload-rows
traces list:bwaves_s
metric speedup
normalize-first
avg-row AVG
row 4KB = gaze
row 8KB = vgaze-8
row combined = gaze+bingo
end
";
        let spec = parse(text).expect("valid");
        assert_eq!(to_text(&spec), text);
        let TableKind::MultiLevel { rows, .. } = &spec.tables[0].kind else {
            panic!("kind");
        };
        assert_eq!(rows[0].l2.as_deref(), Some("spp-ppf"));
        assert_eq!(rows[1].l2, None);
    }
}
