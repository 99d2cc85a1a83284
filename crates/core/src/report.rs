//! Typed table rendering for experiment output.
//!
//! Every experiment driver returns a [`Table`] whose cells are typed
//! [`Cell`] values rather than pre-formatted strings, so one table can
//! render as aligned text (for humans), CSV, or JSON (for tooling)
//! without the consumer re-parsing `"61.7%"`-style strings:
//!
//! * [`Cell::Text`] — labels (dataset/system names, composite notes).
//! * [`Cell::Int`] — exact counts (node/edge/byte totals).
//! * [`Cell::Num`] — a float with an explicit display precision.
//! * [`Cell::Pct`] — a fraction in `[0, 1]`, displayed as `61.7%`.
//! * [`Cell::Speedup`] — a ratio, displayed as `2.50x`.
//!
//! Machine formats ([`Table::to_csv`], [`Table::to_json`]) emit the raw
//! numeric values; only the text renderer applies the display
//! formatting. Consumers that need numbers use [`Cell::value`], never
//! string parsing.

use crate::json::JsonValue;
use std::fmt;

/// One typed value in a [`Table`] row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Free-form label text.
    Text(String),
    /// An exact unsigned count.
    Int(u64),
    /// A float rendered with `prec` decimals in text output.
    Num {
        /// The raw value.
        value: f64,
        /// Text-rendering precision (decimal places).
        prec: usize,
    },
    /// A fraction in `[0, 1]`, text-rendered as a percentage.
    Pct(f64),
    /// A ratio, text-rendered as `N.NNx`.
    Speedup(f64),
}

impl Cell {
    /// Renders the cell the way the text table shows it.
    pub fn text(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Int(v) => v.to_string(),
            Cell::Num { value, prec } => format!("{value:.prec$}"),
            Cell::Pct(v) => format!("{:.1}%", v * 100.0),
            Cell::Speedup(v) => format!("{v:.2}x"),
        }
    }

    /// The raw numeric value: the count, the float, the *fraction* of a
    /// percentage, the ratio of a speedup. `None` for text.
    pub fn value(&self) -> Option<f64> {
        match self {
            Cell::Text(_) => None,
            Cell::Int(v) => Some(*v as f64),
            Cell::Num { value, .. } => Some(*value),
            Cell::Pct(v) => Some(*v),
            Cell::Speedup(v) => Some(*v),
        }
    }

    /// The label when this is a text cell.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Cell::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The exact count when this is an integer cell.
    pub fn as_int(&self) -> Option<u64> {
        match self {
            Cell::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// JSON value: numbers stay numbers (non-finite renders as `null`),
    /// text becomes a JSON string.
    fn json_value(&self) -> JsonValue {
        match self {
            Cell::Text(s) => s.as_str().into(),
            Cell::Int(v) => (*v).into(),
            Cell::Num { value: v, .. } | Cell::Pct(v) | Cell::Speedup(v) => (*v).into(),
        }
    }

    /// CSV value: raw numbers, quoted text where needed.
    fn csv_value(&self) -> String {
        match self {
            Cell::Text(s) => csv_quote(s),
            Cell::Int(v) => v.to_string(),
            Cell::Num { value, .. } => raw_number(*value),
            Cell::Pct(v) | Cell::Speedup(v) => raw_number(*v),
        }
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Cell {
        Cell::Int(v)
    }
}

impl From<u32> for Cell {
    fn from(v: u32) -> Cell {
        Cell::Int(v as u64)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Cell {
        Cell::Int(v as u64)
    }
}

fn raw_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::new()
    }
}

fn csv_quote(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// A titled table of typed cells.
///
/// # Example
///
/// ```
/// use smartsage_core::report::{num, Cell, Table};
/// let mut t = Table::new("Demo", &["name", "ratio"]);
/// t.row(vec!["a".into(), num(1.234, 2)]);
/// assert!(t.to_string().contains("| a"));
/// assert!(t.to_string().contains("1.23"));
/// assert_eq!(t.rows()[0][1].value(), Some(1.234));
/// assert!(t.to_json().starts_with("{\"title\":\"Demo\""));
/// assert!(t.to_csv().starts_with("name,ratio"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics on duplicate headers: JSON rows are keyed by header, so
    /// duplicates would silently drop cells in `to_json`.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        for (i, h) in headers.iter().enumerate() {
            assert!(
                !headers[..i].contains(h),
                "table '{title}': duplicate header '{h}'"
            );
        }
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics (naming the table) if the row width differs from the
    /// header width.
    pub fn row(&mut self, cells: Vec<Cell>) {
        let (got, want) = (cells.len(), self.headers.len());
        let title = &self.title;
        assert!(
            got == want,
            "table '{title}': row has {got} cells, headers have {want}"
        );
        self.rows.push(cells);
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The typed rows.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// CSV: a header line then one line per row, raw numeric values.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| csv_quote(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(
                &row.iter()
                    .map(Cell::csv_value)
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
        }
        out
    }

    /// JSON object: `{"title", "headers", "rows"}` with each row an
    /// object keyed by header and numeric cells as JSON numbers.
    pub fn to_json(&self) -> String {
        JsonValue::from(self).to_string()
    }
}

impl From<&Table> for JsonValue {
    /// The document [`Table::to_json`] renders.
    fn from(t: &Table) -> JsonValue {
        let rows = t.rows.iter().map(|row| {
            let keys = t.headers.iter().map(String::as_str);
            JsonValue::obj(keys.zip(row.iter().map(Cell::json_value)))
        });
        JsonValue::obj([
            ("title", t.title.as_str().into()),
            ("headers", t.headers.iter().map(String::as_str).collect()),
            ("rows", rows.collect()),
        ])
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::text).collect())
            .collect();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:<w$} |")?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &sep)?;
        for row in &rendered {
            line(f, row)?;
        }
        Ok(())
    }
}

/// A float cell with `prec` display decimals.
pub fn num(x: f64, prec: usize) -> Cell {
    Cell::Num { value: x, prec }
}

/// A ratio cell, text-rendered as `N.NNx`.
pub fn speedup(x: f64) -> Cell {
    Cell::Speedup(x)
}

/// A fraction cell, text-rendered as a percentage.
pub fn pct(x: f64) -> Cell {
    Cell::Pct(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_built_from_keyed_maps_are_byte_identical_across_insertion_orders() {
        // The ordered-maps rule: result tables come out of ordered maps,
        // so two processes that accumulate the same measurements in
        // different orders emit the same bytes in every format.
        use std::collections::BTreeMap;
        let rows = [("mem", 10u64), ("file", 20), ("isp", 30), ("mmap", 40)];
        let build = |order: &[usize]| {
            let mut map = BTreeMap::new();
            for &i in order {
                map.insert(rows[i].0, rows[i].1);
            }
            let mut t = Table::new("tiers", &["tier", "ns"]);
            for (tier, ns) in &map {
                t.row(vec![(*tier).into(), ns.to_string().into()]);
            }
            (t.to_string(), t.to_csv(), t.to_json())
        };
        let forward = build(&[0, 1, 2, 3]);
        let adversarial = build(&[3, 1, 0, 2]);
        assert_eq!(forward, adversarial);
    }

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("T", &["name", "v"]);
        t.row(vec!["long-name".into(), "1".into()]);
        t.row(vec!["x".into(), "22".into()]);
        let s = t.to_string();
        assert!(s.contains("## T"));
        assert!(s.contains("| long-name | 1  |"));
        assert!(s.contains("| x         | 22 |"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "table 'T'")]
    fn ragged_row_panics_naming_the_table() {
        let mut t = Table::new("T", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    #[should_panic(expected = "duplicate header")]
    fn duplicate_headers_rejected_at_construction() {
        Table::new("T", &["a", "a"]);
    }

    #[test]
    fn cell_text_formatting() {
        assert_eq!(num(1.23456, 2).text(), "1.23");
        assert_eq!(speedup(2.5).text(), "2.50x");
        assert_eq!(pct(0.617).text(), "61.7%");
        assert_eq!(Cell::Int(42).text(), "42");
        assert_eq!(Cell::from("hi").text(), "hi");
    }

    #[test]
    fn cell_raw_values() {
        assert_eq!(pct(0.617).value(), Some(0.617));
        assert_eq!(speedup(2.5).value(), Some(2.5));
        assert_eq!(num(1.5, 0).value(), Some(1.5));
        assert_eq!(Cell::Int(7).value(), Some(7.0));
        assert_eq!(Cell::Int(7).as_int(), Some(7));
        assert_eq!(Cell::from("x").value(), None);
        assert_eq!(Cell::from("x").as_str(), Some("x"));
    }

    #[test]
    fn csv_emits_raw_values_and_quotes_text() {
        let mut t = Table::new("T", &["name", "miss", "n"]);
        t.row(vec!["a,b".into(), pct(0.5), 3u64.into()]);
        assert_eq!(t.to_csv(), "name,miss,n\n\"a,b\",0.5,3\n");
    }

    #[test]
    fn json_is_wellformed_and_typed() {
        let mut t = Table::new("T\"x", &["name", "miss"]);
        t.row(vec!["r".into(), pct(0.25)]);
        let j = t.to_json();
        assert_eq!(
            j,
            "{\"title\":\"T\\\"x\",\"headers\":[\"name\",\"miss\"],\
             \"rows\":[{\"name\":\"r\",\"miss\":0.25}]}"
        );
        // Integers (up to 2^53, exact), non-finite floats and ratios.
        let mut t = Table::new("N", &["n", "v", "x"]);
        t.row(vec![
            Cell::Int(1 << 53),
            num(f64::INFINITY, 2),
            speedup(2.5),
        ]);
        t.row(vec![Cell::Int(0), num(f64::NAN, 0), speedup(0.125)]);
        assert_eq!(
            t.to_json(),
            "{\"title\":\"N\",\"headers\":[\"n\",\"v\",\"x\"],\"rows\":[\
             {\"n\":9007199254740992,\"v\":null,\"x\":2.5},\
             {\"n\":0,\"v\":null,\"x\":0.125}]}"
        );
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut t = Table::new("T", &["v"]);
        t.row(vec![num(f64::NAN, 2)]);
        assert!(t.to_json().contains("null"));
        assert_eq!(t.to_csv(), "v\n\n");
    }
}
