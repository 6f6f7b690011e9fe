//! Output checks: parsers for what the `repro` CLI writes and the
//! op / failure accounting built on them.
//!
//! An op is one trace×tool row (`study.csv`, `table2.txt`), one child
//! process (`scale`), or one in-process `replay` call. An op fails on a
//! non-zero exit or timeout, a missing or unparseable row, a failure
//! code other than `budget`, or a non-positive predicted time. Budget
//! trips are the paper's completion accounting (§V-A), not failures:
//! they are counted separately.

/// The four tools in the column order `study.csv` and this module use.
pub const TOOLS: [&str; 4] = ["mfact", "packet", "flow", "packet-flow"];

const STUDY_HEADER: &str = "app,ranks,machine,comm_bucket,rank_bucket,comm_fraction,class,\
    comm_sensitive,measured_total_s,mfact_total_s,packet_total_s,flow_total_s,pflow_total_s,\
    mfact_wall_s,packet_wall_s,flow_wall_s,pflow_wall_s,diff_total_pflow,diff_comm_pflow,events,\
    mfact_failure,packet_failure,flow_failure,pflow_failure";
const STUDY_COLUMNS: usize = 24;
const COL_TOTALS: usize = 9;
const COL_WALLS: usize = 13;
const COL_DIFF_TOTAL_PFLOW: usize = 17;
const COL_EVENTS: usize = 19;
const COL_FAILURES: usize = 20;

/// The one failure code that is data, not an error.
pub const BUDGET: &str = "budget";

/// Op accounting for one workload run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// Budget trips (counted in `attempted`, never in `failed`).
    pub budget: u64,
    /// One line per failed op or check, for the printout.
    pub notes: Vec<String>,
}

impl Ops {
    /// `attempted` ops that all failed for one reason (a dead child, an
    /// unreadable report).
    pub fn all_failed(attempted: u64, why: impl Into<String>) -> Ops {
        let mut ops = Ops { attempted, ..Ops::default() };
        ops.fail(attempted, why);
        ops
    }

    pub fn fail(&mut self, n: u64, note: impl Into<String>) {
        self.failed += n;
        self.notes.push(note.into());
    }

    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.budget += other.budget;
        self.notes.extend(other.notes);
    }

    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One parsed `study.csv` row; per-tool arrays follow [`TOOLS`].
#[derive(Clone, Debug, PartialEq)]
pub struct StudyRow {
    pub app: String,
    pub ranks: u32,
    /// Predicted total seconds exactly as printed (empty when the tool failed).
    pub predicted: [String; 4],
    pub wall_s: [f64; 4],
    /// Failure code per tool (empty when it completed).
    pub failure: [String; 4],
    pub diff_total_pflow: Option<f64>,
    pub events: u64,
}

impl StudyRow {
    /// Sum of the four `*_wall_s` columns: what this trace cost.
    pub fn trace_wall_s(&self) -> f64 {
        self.wall_s.iter().sum()
    }
}

fn parse_study_row(line: &str) -> Result<StudyRow, String> {
    let cols: Vec<&str> = line.split(',').collect();
    if cols.len() != STUDY_COLUMNS {
        return Err(format!("{} column(s), expected {STUDY_COLUMNS}", cols.len()));
    }
    let num = |i: usize| -> Result<f64, String> {
        cols[i].parse::<f64>().map_err(|_| format!("column {i} '{}' is not a number", cols[i]))
    };
    let four = |at: usize| [0, 1, 2, 3].map(|k| cols[at + k].to_string());
    let mut wall_s = [0.0; 4];
    for (k, w) in wall_s.iter_mut().enumerate() {
        *w = num(COL_WALLS + k)?;
    }
    let diff = cols[COL_DIFF_TOTAL_PFLOW];
    Ok(StudyRow {
        app: cols[0].to_string(),
        ranks: cols[1].parse().map_err(|_| format!("ranks '{}' is not a count", cols[1]))?,
        predicted: four(COL_TOTALS),
        wall_s,
        failure: four(COL_FAILURES),
        diff_total_pflow: if diff.is_empty() { None } else { Some(num(COL_DIFF_TOTAL_PFLOW)?) },
        events: cols[COL_EVENTS]
            .parse()
            .map_err(|_| format!("events '{}' is not a count", cols[COL_EVENTS]))?,
    })
}

/// Parse `study.csv`: the header must be the 24 known columns; each data
/// line parses on its own, so one bad row costs its ops, not the file.
pub fn parse_study_csv(text: &str) -> Result<Vec<Result<StudyRow, String>>, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("study.csv is empty")?;
    if header != STUDY_HEADER {
        return Err(format!("unexpected study.csv header: {header}"));
    }
    Ok(lines.map(parse_study_row).collect())
}

/// Account for `expected` traces × 4 tools against the parsed rows.
pub fn study_ops(rows: &[Result<StudyRow, String>], expected: usize) -> Ops {
    let mut ops = Ops { attempted: 4 * expected as u64, ..Ops::default() };
    for (i, row) in rows.iter().enumerate().take(expected) {
        let row = match row {
            Ok(r) => r,
            Err(e) => {
                ops.fail(4, format!("study.csv row {i}: {e}"));
                continue;
            }
        };
        for (k, tool) in TOOLS.iter().enumerate() {
            let code = row.failure[k].as_str();
            if code == BUDGET {
                ops.budget += 1;
            } else if !code.is_empty() {
                ops.fail(1, format!("{}({}) {tool}: failure '{code}'", row.app, row.ranks));
            } else if !row.predicted[k].parse::<f64>().is_ok_and(|t| t > 0.0) {
                ops.fail(
                    1,
                    format!(
                        "{}({}) {tool}: predicted time '{}' is not positive",
                        row.app, row.ranks, row.predicted[k]
                    ),
                );
            }
        }
    }
    if rows.len() < expected {
        let missing = expected - rows.len();
        ops.fail(4 * missing as u64, format!("study.csv is missing {missing} of {expected} rows"));
    } else if rows.len() > expected {
        ops.fail(1, format!("study.csv has {} rows, expected {expected}", rows.len()));
    }
    ops
}

/// One application row of `table2.txt`; walls follow the file's column
/// order (packet, flow, packet-flow, MFACT).
#[derive(Clone, Debug, PartialEq)]
pub struct Table2Row {
    pub app: String,
    pub wall_s: [f64; 4],
    /// Tools named on a `^ incomplete:` line under this row.
    pub incomplete: Vec<String>,
}

impl Table2Row {
    pub fn trace_wall_s(&self) -> f64 {
        self.wall_s.iter().sum()
    }
}

/// Parse the Table II report: a title, a column header, then one row per
/// application, each optionally followed by `^ incomplete: tool=code, …`.
pub fn parse_table2(text: &str) -> Result<Vec<Table2Row>, String> {
    let mut lines = text.lines();
    let title = lines.next().unwrap_or_default();
    if !title.starts_with("Table II") {
        return Err(format!("table2: unexpected title '{title}'"));
    }
    let header: Vec<&str> = lines.next().unwrap_or_default().split_whitespace().collect();
    if header != ["app", "Pkt", "Flow", "Pkt-flow", "MFACT"] {
        return Err(format!("table2: unexpected column header {header:?}"));
    }
    let mut rows: Vec<Table2Row> = Vec::new();
    for line in lines.filter(|l| !l.trim().is_empty()) {
        if let Some(list) = line.trim().strip_prefix("^ incomplete:") {
            let row = rows.last_mut().ok_or("table2: '^ incomplete' before any row")?;
            row.incomplete.extend(list.split(',').map(|t| t.trim().to_string()));
            continue;
        }
        let cols: Vec<&str> = line.split_whitespace().collect();
        if cols.len() != 5 {
            return Err(format!("table2: row '{line}' has {} field(s), expected 5", cols.len()));
        }
        let mut wall_s = [0.0; 4];
        for (k, w) in wall_s.iter_mut().enumerate() {
            *w = cols[k + 1].parse().map_err(|_| {
                format!("table2: '{}' in row '{line}' is not a number", cols[k + 1])
            })?;
        }
        rows.push(Table2Row { app: cols[0].to_string(), wall_s, incomplete: Vec::new() });
    }
    Ok(rows)
}

/// Account for `expected` applications × 4 tools. Table II runs
/// unbudgeted, so every `^ incomplete` entry — budget included — fails.
pub fn table2_ops(rows: &[Table2Row], expected: usize) -> Ops {
    let mut ops = Ops { attempted: 4 * expected as u64, ..Ops::default() };
    for row in rows.iter().take(expected) {
        for tool in &row.incomplete {
            ops.fail(1, format!("table2 {}: incomplete {tool}", row.app));
        }
    }
    if rows.len() != expected {
        let missing = expected.saturating_sub(rows.len());
        ops.fail(
            (4 * missing as u64).max(1),
            format!("table2 has {} application row(s), expected {expected}", rows.len()),
        );
    }
    ops
}

/// What `repro scale` prints on success.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleOut {
    /// Predicted application time exactly as printed (e.g. `210.651us`).
    pub predicted: String,
    pub events: u64,
    pub packets: u64,
    pub route_arena_bytes: u64,
    pub peak_rss_bytes: u64,
}

/// Parse the `scale: APP(N) packet model finished in …` stdout line.
pub fn parse_scale_stdout(text: &str) -> Result<ScaleOut, String> {
    let line = text
        .lines()
        .find(|l| l.starts_with("scale:") && l.contains("packet model finished"))
        .ok_or("scale: no 'packet model finished' line on stdout")?;
    let bad = || format!("scale: cannot parse '{line}'");
    let (_, results) = line.split_once(": predicted ").ok_or_else(bad)?;
    let fields: Vec<&str> = results.split(", ").collect();
    let [predicted, events, packets, arena, rss] = fields[..] else { return Err(bad()) };
    let count = |field: &str, prefix: &str, suffix: &str| -> Result<u64, String> {
        field
            .strip_prefix(prefix)
            .and_then(|f| f.strip_suffix(suffix))
            .and_then(|n| n.parse().ok())
            .ok_or_else(bad)
    };
    Ok(ScaleOut {
        predicted: predicted.to_string(),
        events: count(events, "", " events")?,
        packets: count(packets, "", " packets")?,
        route_arena_bytes: count(arena, "route arena ", " B")?,
        peak_rss_bytes: count(rss, "peak RSS ", " B")?,
    })
}

/// Check one `scale` child: a positive prediction that fits the memory budget.
pub fn scale_op(out: &Result<ScaleOut, String>, mem_budget_bytes: u64) -> Ops {
    let mut ops = Ops { attempted: 1, ..Ops::default() };
    match out {
        Err(e) => ops.fail(1, e.clone()),
        Ok(o) if o.predicted == "0ps" => ops.fail(1, "scale: predicted time is zero"),
        Ok(o) if o.peak_rss_bytes > mem_budget_bytes => ops.fail(
            1,
            format!(
                "scale: peak RSS {} B exceeds the {mem_budget_bytes} B budget",
                o.peak_rss_bytes
            ),
        ),
        Ok(_) => {}
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROW_OK: &str = "EP,136,cielito,0,2,0.0107,computation-bound,false,0.0167,0.0166,0.0166,\
        0.0166,0.0166,0.00006,0.0034,0.0027,0.0019,0.0004,-0.085,2040,,,,";
    const ROW_BUDGET: &str = "IS,1024,cielito,5,4,0.8,communication-bound,true,0.5,0.4,,,0.45,\
        0.001,0.9,0.8,0.7,0.125,0.2,99999,,budget,budget,";
    const ROW_PANIC: &str = "FT,512,hopper,4,3,0.5,communication-bound,true,0.5,0.4,0.41,,0.45,\
        0.001,0.9,0.0,0.7,0.125,0.2,4242,,,panic,";

    fn csv(rows: &[&str]) -> String {
        let mut s = format!("{STUDY_HEADER}\n");
        for r in rows {
            s.push_str(r);
            s.push('\n');
        }
        s
    }

    #[test]
    fn study_csv_rows_parse_with_four_failure_codes() {
        let rows = parse_study_csv(&csv(&[ROW_OK, ROW_BUDGET])).unwrap();
        let ok = rows[0].as_ref().unwrap();
        assert_eq!((ok.app.as_str(), ok.ranks, ok.events), ("EP", 136, 2040));
        assert_eq!(ok.failure, ["", "", "", ""].map(String::from));
        assert!((ok.trace_wall_s() - (0.00006 + 0.0034 + 0.0027 + 0.0019)).abs() < 1e-12);
        let b = rows[1].as_ref().unwrap();
        assert_eq!(b.failure, ["", "budget", "budget", ""].map(String::from));
        assert_eq!(b.predicted[1], "");
        assert_eq!(b.diff_total_pflow, Some(0.125));
    }

    #[test]
    fn budget_trips_are_counted_not_failed() {
        let rows = parse_study_csv(&csv(&[ROW_OK, ROW_BUDGET])).unwrap();
        let ops = study_ops(&rows, 2);
        assert_eq!((ops.attempted, ops.failed, ops.budget), (8, 0, 2));
        assert_eq!(ops.fail_frac(), 0.0);
    }

    #[test]
    fn a_panic_failure_code_is_a_failed_op() {
        let rows = parse_study_csv(&csv(&[ROW_OK, ROW_PANIC])).unwrap();
        let ops = study_ops(&rows, 2);
        assert_eq!((ops.attempted, ops.failed, ops.budget), (8, 1, 0));
        assert!(ops.notes[0].contains("flow: failure 'panic'"), "{:?}", ops.notes);
    }

    #[test]
    fn a_truncated_csv_fails_the_cut_row_and_every_missing_one() {
        let full = csv(&[ROW_OK, ROW_BUDGET, ROW_OK]);
        // Cut in the middle of the second row: it no longer has 24 columns,
        // and the third row is gone.
        let cut = &full[..STUDY_HEADER.len() + 1 + ROW_OK.len() + 1 + 40];
        let rows = parse_study_csv(cut).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows[1].is_err());
        let ops = study_ops(&rows, 3);
        assert_eq!((ops.attempted, ops.failed), (12, 8));
    }

    #[test]
    fn a_completed_tool_without_a_positive_time_fails() {
        let zero = ROW_OK.replacen("0.0166,0.0166,0.0166,0.0166", "0.0166,0,0.0166,", 1);
        let rows = parse_study_csv(&csv(&[&zero])).unwrap();
        let ops = study_ops(&rows, 1);
        assert_eq!((ops.attempted, ops.failed), (4, 2));
    }

    #[test]
    fn a_foreign_header_is_refused() {
        assert!(parse_study_csv("app,ranks\nEP,136\n").is_err());
        assert!(parse_study_csv("").is_err());
    }

    const TABLE2: &str = "Table II: execution time in seconds (this host)\n  \
        app                   Pkt       Flow   Pkt-flow      MFACT\n  \
        CMC(1024)           0.078      0.086      0.054     0.0005\n  \
        LULESH(512)         0.089      0.103      0.029     0.0118\n  \
        MiniFE(1152)        0.976      1.142      0.651     0.1102\n";

    #[test]
    fn table2_parses_three_rows_of_four_walls() {
        let rows = parse_table2(TABLE2).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].app, "MiniFE(1152)");
        assert_eq!(rows[2].wall_s, [0.976, 1.142, 0.651, 0.1102]);
        let ops = table2_ops(&rows, 3);
        assert_eq!((ops.attempted, ops.failed), (12, 0));
    }

    #[test]
    fn table2_incomplete_lines_fail_their_tools() {
        let text = format!("{TABLE2}    ^ incomplete: packet=budget, flow=deadlock\n");
        let rows = parse_table2(&text).unwrap();
        assert_eq!(rows[2].incomplete, ["packet=budget", "flow=deadlock"]);
        let ops = table2_ops(&rows, 3);
        assert_eq!((ops.attempted, ops.failed), (12, 2));
    }

    #[test]
    fn table2_missing_rows_fail_their_ops() {
        let two_rows: String = TABLE2.lines().take(4).map(|l| format!("{l}\n")).collect();
        let ops = table2_ops(&parse_table2(&two_rows).unwrap(), 3);
        assert_eq!((ops.attempted, ops.failed), (12, 4));
        assert!(parse_table2("nonsense").is_err());
    }

    const SCALE: &str = "scale: CNS(64000) packet model finished in 9.4s: predicted 210.651us, \
        8438152 events, 1219200 packets, route arena 9961472 B, peak RSS 445440000 B\n";

    #[test]
    fn scale_stdout_parses() {
        let out = parse_scale_stdout(SCALE).unwrap();
        assert_eq!(
            out,
            ScaleOut {
                predicted: "210.651us".into(),
                events: 8_438_152,
                packets: 1_219_200,
                route_arena_bytes: 9_961_472,
                peak_rss_bytes: 445_440_000,
            }
        );
        assert_eq!(scale_op(&Ok(out), 8 << 30).failed, 0);
    }

    #[test]
    fn scale_failures_are_failed_ops() {
        let out = parse_scale_stdout(SCALE).unwrap();
        assert_eq!(scale_op(&Ok(out.clone()), 400_000_000).failed, 1);
        assert_eq!(scale_op(&Ok(ScaleOut { predicted: "0ps".into(), ..out }), 8 << 30).failed, 1);
        assert_eq!(scale_op(&parse_scale_stdout("repro: scale: boom"), 8 << 30).failed, 1);
    }
}
