//! Per-row quality tables: written next to the trace, compared with the
//! expected files captured at the commit that defined the benchmark.

use std::fmt::Write as _;
use std::path::Path;

/// Quality columns of one circuit (gate counts, area, delay).
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub name: String,
    pub values: Vec<f64>,
}

/// Rows as TSV with a `name` column first.
pub fn to_tsv(columns: &[&str], rows: &[Row]) -> String {
    let mut out = format!("name\t{}\n", columns.join("\t"));
    for r in rows {
        let vals: Vec<String> = r.values.iter().map(|v| format!("{v:?}")).collect();
        let _ = writeln!(out, "{}\t{}", r.name, vals.join("\t"));
    }
    out
}

/// Parses [`to_tsv`] output back into its columns and rows.
pub fn parse_tsv(text: &str) -> Result<(Vec<String>, Vec<Row>), String> {
    let mut lines = text.lines();
    let header: Vec<String> = lines
        .next()
        .ok_or("empty row file")?
        .split('\t')
        .skip(1)
        .map(str::to_string)
        .collect();
    let mut rows = Vec::new();
    for (n, line) in lines.enumerate() {
        let mut cells = line.split('\t');
        let name = cells.next().unwrap_or_default().to_string();
        let values = cells
            .map(|c| {
                c.parse::<f64>()
                    .map_err(|e| format!("line {}: {c}: {e}", n + 2))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        if values.len() != header.len() {
            return Err(format!(
                "line {}: {} values for {} columns",
                n + 2,
                values.len(),
                header.len()
            ));
        }
        rows.push(Row { name, values });
    }
    Ok((header, rows))
}

/// Every quality difference of `current` against `expected`, one line
/// each, plus rows present in only one of them.
pub fn deltas(columns: &[&str], expected: &[Row], current: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    for r in current {
        let Some(e) = expected.iter().find(|e| e.name == r.name) else {
            out.push(format!("{}: not in the expected file", r.name));
            continue;
        };
        for ((col, want), got) in columns.iter().zip(&e.values).zip(&r.values) {
            if want != got {
                let pct = if *want == 0.0 {
                    f64::NAN
                } else {
                    100.0 * (got - want) / want
                };
                out.push(format!("{}: {col} {want} -> {got} ({pct:+.2} %)", r.name));
            }
        }
    }
    for e in expected {
        if !current.iter().any(|r| r.name == e.name) {
            out.push(format!("{}: missing from this run", e.name));
        }
    }
    out
}

/// Prints the per-row table (quality columns and median latency) and
/// its deltas against `expected`, if that file exists.
pub fn print_report(columns: &[&str], rows: &[Row], latency_ms: Option<&[f64]>, expected: &Path) {
    print!("{:<22}", "row");
    for c in columns {
        print!(" {c:>11}");
    }
    println!(
        "{}",
        if latency_ms.is_some() {
            "  latency_ms"
        } else {
            ""
        }
    );
    for (i, r) in rows.iter().enumerate() {
        print!("{:<22}", r.name);
        for v in &r.values {
            print!(" {v:>11.3}");
        }
        match latency_ms {
            Some(l) => println!("  {:>10.3}", l[i]),
            None => println!(),
        }
    }
    let header: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
    match std::fs::read_to_string(expected)
        .map_err(|e| e.to_string())
        .and_then(|t| parse_tsv(&t))
    {
        Ok((cols, exp)) if cols == header => {
            let d = deltas(columns, &exp, rows);
            println!(
                "quality deltas vs {}: {}",
                expected.display(),
                if d.is_empty() { "none" } else { "" }
            );
            for line in d {
                println!("  {line}");
            }
        }
        Ok(_) => println!("quality deltas: {} has other columns", expected.display()),
        Err(e) => println!(
            "quality deltas: no expected rows at {} ({e})",
            expected.display()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsv_round_trips_and_deltas_list_each_change() {
        let cols = ["gates", "area"];
        let rows = vec![
            Row {
                name: "SQRT 32 bit".into(),
                values: vec![832.0, 1.25],
            },
            Row {
                name: "alu2".into(),
                values: vec![60.0, 2.5],
            },
        ];
        let (c, back) = parse_tsv(&to_tsv(&cols, &rows)).unwrap();
        assert_eq!(c, vec!["gates", "area"]);
        assert_eq!(back, rows);
        assert!(deltas(&cols, &rows, &back).is_empty());
        let mut changed = rows.clone();
        changed[1].values[0] = 66.0;
        changed.remove(0);
        let d = deltas(&cols, &rows, &changed);
        assert_eq!(
            d,
            vec![
                "alu2: gates 60 -> 66 (+10.00 %)",
                "SQRT 32 bit: missing from this run"
            ]
        );
    }
}
