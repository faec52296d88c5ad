//! Output helpers for the reproduction harness: aligned text tables plus
//! optional JSON dumps for downstream plotting.

use serde::{Serialize, Value};

/// A printable experiment result: a title, column headers, and rows.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id, e.g. "fig5a".
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of pre-formatted cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (paper expectation vs measured).
    pub notes: Vec<String>,
}

impl Table {
    /// New empty table.
    pub(crate) fn new(id: &str, title: &str, columns: &[&str]) -> Table {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Append a note.
    pub(crate) fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as pretty-printed JSON (the `repro --json` output; schema
    /// documented in EXPERIMENTS.md).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("table serialises")
    }

    /// Render as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&rule.join("-+-"));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }
}

/// The `repro --json` document: these keys, in this order.
impl Serialize for Table {
    fn to_value(&self) -> Value {
        object([
            ("id", &self.id),
            ("title", &self.title),
            ("columns", &self.columns),
            ("rows", &self.rows),
            ("notes", &self.notes),
        ])
    }
}

/// A JSON object holding these fields, in this order — how every bench
/// document is built.
pub(crate) fn object<const N: usize>(fields: [(&str, &dyn Serialize); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(key, v)| (key.to_string(), v.to_value()))
            .collect(),
    )
}

/// Format a float with fixed precision.
pub(crate) fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Format a percentage.
pub(crate) fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// The top-level keys of a JSON object, in emission order — what the
/// `BENCH_*.json` contract tests pin.
#[cfg(test)]
pub(crate) fn top_level_keys(json: &str) -> Vec<String> {
    let doc = serde_json::from_str(json).expect("valid JSON");
    let pairs = doc.as_object().expect("a JSON object");
    pairs.iter().map(|(key, _)| key.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("fig0", "demo", &["x", "value"]);
        t.row(vec!["1".into(), "10.0".into()]);
        t.row(vec!["100".into(), "3.5".into()]);
        t.note("shape holds");
        let s = t.render();
        assert!(s.contains("fig0"));
        assert!(s.contains("  1 |  10.0"));
        assert!(s.contains("note: shape holds"));
    }

    #[test]
    fn json_table_keys_and_their_order_are_pinned() {
        let mut t = Table::new("fig0", "demo", &["x"]);
        t.row(vec!["1".into()]);
        t.note("n");
        let json = t.to_json();
        assert_eq!(
            top_level_keys(&json),
            ["id", "title", "columns", "rows", "notes"]
        );
        let doc = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(doc["rows"][0][0], "1");
        assert_eq!(doc["notes"][0], "n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("x", "y", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
