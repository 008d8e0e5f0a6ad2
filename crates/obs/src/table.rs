//! One writer for the study's tabular artifacts.
//!
//! Every CSV the workspace writes, and every row section of its JSON
//! documents, is declared once as a [`Table`]: an optional schema tag and
//! a list of [`Column`]s, each pairing a column name with how a row fills
//! it. The header, the `# schema:` line, CSV quoting and number formatting
//! live here, so a column cannot be added to the header without reaching
//! every row, or the other way round.
//!
//! CSV cells print numbers in Rust's shortest round-trip form (`{}`), or
//! with a column's fixed precision; strings are quoted only when they hold
//! a comma, a quote or a newline. JSON rows are objects keyed by column
//! name, written through [`crate::json`]. Every number is a [`Value::Num`],
//! so integer cells are exact up to 2^53. [`Table::text`] prints the same
//! rows as a padded `| a | b |` table for a terminal.

use std::borrow::Borrow;
use std::fmt::Write as _;

use crate::json::Value;

/// One column: its name, the fixed number of decimals its numbers print
/// with (`None`: shortest round-trip form in CSV, four significant digits
/// in text), and the cell of a row.
pub struct Column<R> {
    /// Header name and JSON key.
    pub name: &'static str,
    precision: Option<usize>,
    cell: fn(&R) -> Value,
}

impl<R> Column<R> {
    /// A column whose numbers print in shortest round-trip form.
    pub const fn new(name: &'static str, cell: fn(&R) -> Value) -> Self {
        Column {
            name,
            precision: None,
            cell,
        }
    }

    /// A column whose numbers print with `precision` decimals.
    pub const fn fixed(name: &'static str, precision: usize, cell: fn(&R) -> Value) -> Self {
        Column {
            name,
            precision: Some(precision),
            cell,
        }
    }
}

/// A table artifact: an optional schema tag (written as a leading
/// `# schema: <tag>` CSV comment, bumped on any column change) and its
/// columns, in order.
pub struct Table<'c, R> {
    /// Schema tag, if the artifact carries one.
    pub schema: Option<&'static str>,
    /// The columns, in order.
    pub columns: &'c [Column<R>],
}

impl<R> Table<'_, R> {
    /// The `# schema:` line (when tagged) and the header line.
    pub fn header(&self) -> String {
        let mut out = String::new();
        if let Some(schema) = self.schema {
            let _ = writeln!(out, "# schema: {schema}");
        }
        let names: Vec<&str> = self.columns.iter().map(|c| c.name).collect();
        out.push_str(&names.join(","));
        out.push('\n');
        out
    }

    /// One CSV line per row, without the header.
    pub fn csv_rows(&self, rows: impl IntoIterator<Item = impl Borrow<R>>) -> String {
        let mut out = String::new();
        for row in rows {
            for (i, col) in self.columns.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = match ((col.cell)(row.borrow()), col.precision) {
                    (Value::Num(n), Some(p)) => write!(out, "{n:.p$}"),
                    (Value::Num(n), None) => write!(out, "{n}"),
                    (Value::Bool(b), _) => write!(out, "{b}"),
                    (Value::Str(s), _) => write!(out, "{}", esc(&s)),
                    (other, _) => write!(out, "{}", esc(&other.to_json())),
                };
            }
            out.push('\n');
        }
        out
    }

    /// The whole CSV: [`Table::header`], then [`Table::csv_rows`].
    pub fn csv(&self, rows: impl IntoIterator<Item = impl Borrow<R>>) -> String {
        self.header() + &self.csv_rows(rows)
    }

    /// The rows as a padded text table: a `| name | ... |` header of the
    /// column names, a `|-...-|` rule, then one left-aligned line per row.
    /// Strings print as they are; a number prints with its column's fixed
    /// precision, whole when it is whole, and otherwise to four
    /// significant digits.
    pub fn text(&self, rows: impl IntoIterator<Item = impl Borrow<R>>) -> String {
        let names: Vec<String> = self.columns.iter().map(|c| c.name.to_owned()).collect();
        let body: Vec<Vec<String>> = rows
            .into_iter()
            .map(|row| {
                let cells = self.columns.iter();
                cells
                    .map(|c| text_cell((c.cell)(row.borrow()), c.precision))
                    .collect()
            })
            .collect();
        let mut widths = vec![0; self.columns.len()];
        for line in std::iter::once(&names).chain(&body) {
            for (w, cell) in widths.iter_mut().zip(line) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> = (cells.iter().zip(&widths))
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        let mut out = line(&names) + &format!("|-{}-|\n", rule.join("-|-"));
        for cells in &body {
            out += &line(cells);
        }
        out
    }

    /// One row as a JSON object keyed by column name.
    pub fn json_row(&self, row: &R) -> Value {
        Value::Obj(
            self.columns
                .iter()
                .map(|c| (c.name.to_owned(), (c.cell)(row)))
                .collect(),
        )
    }

    /// Rows as a JSON array of [`Table::json_row`] objects.
    pub fn json_rows(&self, rows: impl IntoIterator<Item = impl Borrow<R>>) -> Value {
        Value::Arr(
            rows.into_iter()
                .map(|r| self.json_row(r.borrow()))
                .collect(),
        )
    }
}

/// One [`Table::text`] cell.
fn text_cell(value: Value, precision: Option<usize>) -> String {
    match (value, precision) {
        (Value::Num(n), Some(p)) => format!("{n:.p$}"),
        (Value::Num(n), None) if !n.is_finite() || n.fract() == 0.0 => format!("{n}"),
        (Value::Num(n), None) => {
            let decimals = (3 - n.abs().log10().floor() as i64).max(0) as usize;
            format!("{n:.decimals$}")
        }
        (Value::Bool(b), _) => b.to_string(),
        (Value::Str(s), _) => s,
        (other, _) => other.to_json(),
    }
}

/// CSV-quotes `field` when it holds a comma, a quote or a newline.
fn esc(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row {
        name: String,
        x: f64,
        n: u64,
        ok: bool,
    }

    const ROWS: Table<Row> = Table {
        schema: Some("demo/v1"),
        columns: &[
            Column::new("name", |r| r.name.as_str().into()),
            Column::new("x", |r| r.x.into()),
            Column::fixed("x3", 3, |r| r.x.into()),
            Column::new("n", |r| r.n.into()),
            Column::new("ok", |r| r.ok.into()),
        ],
    };

    fn rows() -> [Row; 2] {
        [
            Row {
                name: "plain".into(),
                x: 0.1 + 0.2,
                n: 1 << 40,
                ok: true,
            },
            Row {
                name: "say \"hi\", twice".into(),
                x: 2.0,
                n: 0,
                ok: false,
            },
        ]
    }

    #[test]
    fn csv_has_schema_header_and_formatted_rows() {
        assert_eq!(
            ROWS.csv(rows()),
            "# schema: demo/v1\nname,x,x3,n,ok\n\
             plain,0.30000000000000004,0.300,1099511627776,true\n\
             \"say \"\"hi\"\", twice\",2,2.000,0,false\n"
        );
        let untagged = Table {
            schema: None,
            columns: ROWS.columns,
        };
        assert_eq!(untagged.csv(&[] as &[Row]), "name,x,x3,n,ok\n");
    }

    #[test]
    fn escaping_quotes_and_commas() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a,b"), "\"a,b\"");
        assert_eq!(esc("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(esc("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn text_header_is_the_column_names() {
        let text = ROWS.text(rows());
        let header: Vec<&str> = text.lines().next().unwrap().split('|').collect();
        let cells: Vec<&str> = header[1..header.len() - 1]
            .iter()
            .map(|c| c.trim())
            .collect();
        let names = ROWS.header();
        let names: Vec<&str> = names.lines().last().unwrap().split(',').collect();
        assert_eq!(cells, names);
    }

    #[test]
    fn text_lines_share_one_width() {
        let text = ROWS.text(rows());
        let widths: Vec<usize> = text.lines().map(|l| l.chars().count()).collect();
        assert_eq!(widths.len(), 4, "{text}");
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{text}");
        assert!(text.lines().nth(1).unwrap().starts_with("|--"), "{text}");
    }

    #[test]
    fn text_prints_strings_unquoted() {
        let text = ROWS.text(rows());
        assert!(text.contains("| say \"hi\", twice |"), "{text}");
    }

    #[test]
    fn text_numbers_are_whole_fixed_or_four_significant_digits() {
        let cell = |x: f64| text_cell(Value::Num(x), None);
        // Whole numbers print whole, however large.
        assert_eq!(cell(2.0), "2");
        assert_eq!(cell(1_099_511_627_776.0), "1099511627776");
        assert_eq!(cell(-0.0), "-0");
        // A fixed precision is honoured, whole or not.
        assert_eq!(text_cell(Value::Num(2.0), Some(2)), "2.00");
        assert_eq!(text_cell(Value::Num(31.9817), Some(2)), "31.98");
        // Anything else keeps four significant digits.
        assert_eq!(cell(0.1 + 0.2), "0.3000");
        assert_eq!(cell(0.004_912_3), "0.004912");
        assert_eq!(cell(-12.345_67), "-12.35");
        assert_eq!(cell(283.256), "283.3");
        assert_eq!(cell(12_345.6), "12346");
        let text = ROWS.text(rows());
        assert!(
            text.contains("| plain           | 0.3000 | 0.300 | 1099511627776 | true  |"),
            "{text}"
        );
    }

    #[test]
    fn text_of_no_rows_is_the_header_alone() {
        assert_eq!(
            ROWS.text(&[] as &[Row]),
            "| name | x | x3 | n | ok |\n|------|---|----|---|----|\n"
        );
    }

    #[test]
    fn json_rows_are_objects_in_column_order() {
        let text = ROWS.json_rows(&rows()[..1]).to_json();
        assert_eq!(
            text,
            "[{\"name\":\"plain\",\"x\":0.30000000000000004,\"x3\":0.30000000000000004,\
             \"n\":1099511627776,\"ok\":true}]"
        );
    }
}
