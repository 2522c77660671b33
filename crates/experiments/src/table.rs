//! The one column table the fault and admission campaigns write their
//! records with.
//!
//! A campaign declares its columns once, as a table over its per-run
//! verdict: each column has a name, a getter that reads one [`Value`]
//! off a run, and how runs fold into a grid cell and how cells fold into
//! a summary row (key, count, sum, max, all-true, finite-only mean, or a
//! ratio of two summed columns). The grid folds the cell-major runs of
//! [`run_grid`](crate::campaign::run_grid), a summary groups grid rows by
//! a key column, and [`Rows::csv`] writes any [`Rows`] under a header
//! line that names the columns to write, in order. Rows a campaign
//! computes itself (sync's viability threshold, say) are written by the
//! same [`Rows::csv`].
//!
//! Every fold keeps a fixed float order (reals are summed in row order,
//! from `0.0`), so a record is a pure function of its runs, whatever the
//! thread count.

use std::fmt;

use crate::campaign::fmt_f64;

/// One value of a record. Its variant is its CSV format.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// A count, tick span or seed, written in full.
    Int(i128),
    /// A real written with four decimals, or `NaN` when undefined.
    Real(f64),
    /// A real written as `{}` prints it (a grid level such as `0.25`).
    Plain(f64),
    /// A real written with a fixed number of decimals.
    Fixed(f64, usize),
    /// A flag, written `0` or `1`.
    Flag(bool),
    /// A tag such as a protocol name.
    Tag(&'static str),
    /// No value: an empty CSV cell.
    None,
}

impl Value {
    /// The value as a real: integers convert and flags read 0 or 1.
    /// Panics on a tag or an empty value.
    pub fn real(self) -> f64 {
        match self {
            Value::Real(v) | Value::Plain(v) | Value::Fixed(v, _) => v,
            other => other.int() as f64,
        }
    }

    /// The value as an integer; a flag reads 0 or 1. Panics on anything
    /// else.
    pub fn int(self) -> i128 {
        match self {
            Value::Int(v) => v,
            Value::Flag(v) => i128::from(v),
            other => panic!("{other:?} is not an integer"),
        }
    }
}

/// Writes the value as its CSV cell; a width pads it, as for a string.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match *self {
            Value::Int(v) => v.to_string(),
            Value::Real(v) => fmt_f64(v),
            Value::Plain(v) => v.to_string(),
            Value::Fixed(v, places) => format!("{v:.places$}"),
            Value::Flag(v) => u8::from(v).to_string(),
            Value::Tag(v) => v.to_string(),
            Value::None => String::new(),
        };
        f.pad(&text)
    }
}

macro_rules! values {
    ($variant:path: $($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                $variant(v as _)
            }
        }
    )*};
}
values!(Value::Int: u32, u64, i64, usize);
values!(Value::Real: f64);
values!(Value::Flag: bool);
values!(Value::Tag: &'static str);

/// How a column folds a group of rows into one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Agg {
    /// The first row's value: a coordinate the whole group shares
    /// ([`Value::None`] for an empty group).
    Key,
    /// The number of rows.
    Count,
    /// The sum: integers exactly (a flag counts 1), reals in row order
    /// from `0.0`.
    Sum,
    /// The largest integer, and 0 for an empty group.
    Max,
    /// Whether every row's flag is set.
    All,
    /// The mean of the finite reals, summed in row order; `NaN` when
    /// none is finite.
    Mean,
    /// `num / den` of two summed columns of the folded row; `NaN` when
    /// `den` is 0.
    Ratio(&'static str, &'static str),
    /// `1 − num / den`, the complement of a [`Agg::Ratio`].
    Complement(&'static str, &'static str),
}

/// One column of a campaign's table over its per-run verdict `R`.
pub(crate) struct Col<R> {
    /// The column's name, as record headers spell it.
    pub(crate) name: &'static str,
    /// How a grid cell folds its runs.
    pub(crate) cell: Agg,
    /// How a summary row folds its cells.
    pub(crate) summary: Agg,
    /// Reads the column's value off one run.
    pub(crate) get: fn(&R) -> Value,
}

/// Declares a column: its name, its cell and summary folds, its getter.
pub(crate) const fn col<R>(
    name: &'static str,
    cell: Agg,
    summary: Agg,
    get: fn(&R) -> Value,
) -> Col<R> {
    Col {
        name,
        cell,
        summary,
        get,
    }
}

/// A campaign's columns, declared once.
pub(crate) struct Table<R: 'static>(pub(crate) &'static [Col<R>]);

impl<R> Table<R> {
    /// One row per run, every column read straight off its run.
    pub(crate) fn runs(&self, runs: &[R]) -> Rows {
        let rows = runs
            .iter()
            .map(|run| self.0.iter().map(|c| (c.get)(run)).collect())
            .collect();
        Rows {
            names: self.0.iter().map(|c| c.name).collect(),
            rows,
        }
    }

    /// The grid: every `per_cell` consecutive runs (the cell-major order
    /// of [`run_grid`](crate::campaign::run_grid)) fold into one row by
    /// the columns' cell folds.
    pub(crate) fn cells(&self, runs: &[R], per_cell: usize) -> Rows {
        let runs = self.runs(runs);
        let rows = runs
            .rows
            .chunks(per_cell.max(1))
            .map(|group| self.fold(group.iter(), |c| c.cell))
            .collect();
        Rows { rows, ..runs }
    }

    /// The summary: one row per distinct value of the `key` column of
    /// `cells`, folded by the columns' summary folds. Rows come in the
    /// order their key first appears, and equal keys fold together even
    /// when their cells are not adjacent. With `total`, a last row folds
    /// every cell and reads `total` in its key column.
    pub(crate) fn summary(&self, cells: &Rows, key: &str, total: Option<&'static str>) -> Rows {
        let k = cells.index(key);
        let mut keys: Vec<Value> = Vec::new();
        for row in &cells.rows {
            if !keys.contains(&row[k]) {
                keys.push(row[k]);
            }
        }
        let mut rows: Vec<Vec<Value>> = keys
            .iter()
            .map(|&key| {
                let group = cells.rows.iter().filter(|row| row[k] == key);
                self.fold(group, |c| c.summary)
            })
            .collect();
        if let Some(label) = total {
            let mut all = self.fold(cells.rows.iter(), |c| c.summary);
            all[k] = Value::Tag(label);
            rows.push(all);
        }
        Rows {
            names: cells.names.clone(),
            rows,
        }
    }

    /// Folds `group` into one row by the aggregation `level` picks for
    /// each column: ratios last, over the row's other folded columns.
    fn fold<'a>(
        &self,
        group: impl Iterator<Item = &'a Vec<Value>> + Clone,
        level: fn(&Col<R>) -> Agg,
    ) -> Vec<Value> {
        let mut row: Vec<Value> = (self.0.iter().enumerate())
            .map(|(i, c)| {
                let mut values = group.clone().map(|row| row[i]);
                match level(c) {
                    Agg::Key => values.next().unwrap_or(Value::None),
                    Agg::Count => values.count().into(),
                    Agg::Sum => sum(values),
                    Agg::Max => Value::Int(values.map(Value::int).fold(0, i128::max)),
                    Agg::All => Value::Flag(values.all(|v| v == Value::Flag(true))),
                    Agg::Mean => mean(values),
                    Agg::Ratio(..) | Agg::Complement(..) => Value::None,
                }
            })
            .collect();
        for (i, c) in self.0.iter().enumerate() {
            let (num, den, complement) = match level(c) {
                Agg::Ratio(num, den) => (num, den, false),
                Agg::Complement(num, den) => (num, den, true),
                _ => continue,
            };
            let den = row[self.index(den)].real();
            let ratio = if den == 0.0 {
                f64::NAN
            } else {
                row[self.index(num)].real() / den
            };
            row[i] = Value::Real(if complement { 1.0 - ratio } else { ratio });
        }
        row
    }

    fn index(&self, name: &str) -> usize {
        column(self.0.iter().map(|c| c.name), name)
    }
}

/// Where column `name` sits among `names`; panics when it is not there.
fn column(mut names: impl Iterator<Item = &'static str>, name: &str) -> usize {
    (names.position(|n| n == name)).unwrap_or_else(|| panic!("no column {name}"))
}

/// The sum of `values`: exact over integers and flags, in order from
/// `0.0` over reals.
fn sum(values: impl Iterator<Item = Value>) -> Value {
    let (mut int, mut real) = (0, None);
    for v in values {
        match v {
            Value::Real(x) => real = Some(real.unwrap_or(0.0) + x),
            other => int += other.int(),
        }
    }
    real.map_or(Value::Int(int), Value::Real)
}

/// The mean of the finite reals of `values`, summed in order.
fn mean(values: impl Iterator<Item = Value>) -> Value {
    let (mut sum, mut count) = (0.0, 0u64);
    for x in values.map(Value::real).filter(|x| x.is_finite()) {
        sum += x;
        count += 1;
    }
    Value::Real(if count == 0 {
        f64::NAN
    } else {
        sum / count as f64
    })
}

/// Rows of values under named columns: a grid, a summary or one row per
/// run, ready to write.
#[derive(Clone, Debug)]
pub struct Rows {
    names: Vec<&'static str>,
    rows: Vec<Vec<Value>>,
}

impl Rows {
    /// Appends a column, one value per row.
    pub(crate) fn push_column(&mut self, name: &'static str, values: Vec<Value>) {
        assert_eq!(values.len(), self.rows.len(), "one value per row");
        self.names.push(name);
        for (row, v) in self.rows.iter_mut().zip(values) {
            row.push(v);
        }
    }

    /// The `i`-th row.
    pub fn row(&self, i: usize) -> Row<'_> {
        Row {
            names: &self.names,
            values: &self.rows[i],
        }
    }

    /// The rows in order.
    pub fn iter(&self) -> impl Iterator<Item = Row<'_>> + '_ {
        (0..self.rows.len()).map(|i| self.row(i))
    }

    /// The CSV of these rows: `header`, then one line per row holding the
    /// columns `header` names, in its order. Panics on a name that is not
    /// a column.
    pub fn csv(&self, header: &str) -> String {
        let columns: Vec<usize> = header.split(',').map(|name| self.index(name)).collect();
        let mut out = format!("{header}\n");
        for row in &self.rows {
            let cells: Vec<String> = columns.iter().map(|&i| row[i].to_string()).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    fn index(&self, name: &str) -> usize {
        column(self.names.iter().copied(), name)
    }
}

/// One row of [`Rows`], read by column name. Each accessor panics on a
/// name that is not a column.
#[derive(Clone, Copy, Debug)]
pub struct Row<'a> {
    names: &'a [&'static str],
    values: &'a [Value],
}

impl Row<'_> {
    /// The value of column `name`.
    pub fn get(&self, name: &str) -> Value {
        self.values[column(self.names.iter().copied(), name)]
    }

    /// Column `name` as an integer.
    pub fn int(&self, name: &str) -> i128 {
        self.get(name).int()
    }

    /// Column `name` as a real.
    pub fn real(&self, name: &str) -> f64 {
        self.get(name).real()
    }

    /// Column `name` as a flag.
    pub fn flag(&self, name: &str) -> bool {
        self.get(name) == Value::Flag(true)
    }

    /// `", {n} {what}"` when column `name` counts `n > 0`, else nothing:
    /// a warning to append to a terminal line.
    pub fn note(&self, name: &str, what: &str) -> String {
        match self.int(name) {
            0 => String::new(),
            n => format!(", {n} {what}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Agg::*;
    use super::*;

    #[test]
    fn every_value_writes_its_format() {
        let cells = [
            (Value::Int(-3), "-3"),
            (Value::from(u64::MAX), "18446744073709551615"),
            (Value::Real(0.123_456), "0.1235"),
            (Value::Real(f64::NAN), "NaN"),
            (Value::Real(f64::INFINITY), "NaN"),
            (Value::Plain(0.25), "0.25"),
            (Value::Plain(0.0), "0"),
            (Value::Fixed(0.5, 2), "0.50"),
            (Value::Fixed(f64::NAN, 2), "NaN"),
            (Value::Flag(true), "1"),
            (Value::Flag(false), "0"),
            (Value::Tag("DS"), "DS"),
            (Value::None, ""),
        ];
        for (value, text) in cells {
            assert_eq!(value.to_string(), text, "{value:?}");
        }
        // An undefined real is `NaN`; a missing value is an empty cell.
        assert_ne!(Value::Real(f64::NAN).to_string(), Value::None.to_string());
        assert_eq!(
            format!("{:>5}|{:<4}|", Value::Int(42), Value::Tag("RG")),
            "   42|RG  |"
        );
    }

    struct Run {
        key: &'static str,
        n: u64,
        ok: bool,
        x: f64,
    }

    fn run(key: &'static str, n: u64, ok: bool, x: f64) -> Run {
        Run { key, n, ok, x }
    }

    #[rustfmt::skip]
    const TABLE: Table<Run> = Table(&[
        col("key", Key, Key, |r| r.key.into()),
        col("cells", Key, Count, |_| Value::None),
        col("runs", Count, Sum, |_| Value::None),
        col("n", Sum, Sum, |r| r.n.into()),
        col("oks", Sum, Sum, |r| r.ok.into()),
        col("peak", Max, Max, |r| r.n.into()),
        col("all_ok", All, All, |r| r.ok.into()),
        col("x_mean", Mean, Mean, |r| r.x.into()),
        col("x_sum", Sum, Sum, |r| r.x.into()),
        col("per_run", Ratio("n", "runs"), Ratio("n", "runs"), |_| Value::None),
        col("ok_share", Ratio("oks", "n"), Ratio("oks", "n"), |_| Value::None),
        col("not_ok", Complement("oks", "runs"), Complement("oks", "runs"), |_| Value::None),
    ]);

    #[test]
    fn cells_fold_consecutive_runs_by_each_aggregation() {
        let runs = [
            run("a", 2, true, 1e16),
            run("a", 0, true, 1.0),
            run("a", 1, false, -1e16),
            run("b", 0, true, f64::NAN),
            run("b", 0, true, f64::INFINITY),
            run("b", 0, true, f64::NAN),
        ];
        let cells = TABLE.cells(&runs, 3);
        let (a, b) = (cells.row(0), cells.row(1));
        assert_eq!(a.get("key"), Value::Tag("a"));
        assert_eq!(a.get("runs"), Value::Int(3));
        assert_eq!(a.get("n"), Value::Int(3));
        assert_eq!(a.get("oks"), Value::Int(2), "a flag sums as 0/1");
        assert_eq!(a.get("peak"), Value::Int(2));
        assert!(!a.flag("all_ok") && b.flag("all_ok"));
        // Reals add in row order from 0.0: 1e16 + 1 rounds back to 1e16.
        assert_eq!(a.get("x_sum"), Value::Real(0.0));
        assert_eq!(a.get("x_mean"), Value::Real(0.0));
        assert_eq!(a.get("per_run"), Value::Real(1.0));
        assert_eq!(a.real("ok_share"), 2.0 / 3.0);
        assert_eq!(a.real("not_ok"), 1.0 - 2.0 / 3.0);
        // Only finite reals enter a mean; none at all is NaN.
        assert!(b.real("x_mean").is_nan());
        assert_eq!(b.get("peak"), Value::Int(0));
        // A zero denominator is NaN, never a division.
        assert!(b.real("ok_share").is_nan());
        let one = TABLE.cells(&[run("c", 4, true, f64::NAN), run("c", 1, true, 3.0)], 2);
        assert_eq!(one.row(0).get("x_mean"), Value::Real(3.0));
    }

    #[test]
    fn summaries_group_non_adjacent_keys_in_first_appearance_order() {
        let runs = [
            run("b", 1, true, 1.0),
            run("a", 2, false, 2.0),
            run("b", 3, true, f64::NAN),
        ];
        let cells = TABLE.cells(&runs, 1);
        let summary = TABLE.summary(&cells, "key", Some("all"));
        let keys: Vec<Value> = summary.iter().map(|r| r.get("key")).collect();
        assert_eq!(keys, [Value::Tag("b"), Value::Tag("a"), Value::Tag("all")]);
        let b = summary.row(0);
        assert_eq!((b.int("cells"), b.int("runs"), b.int("n")), (2, 2, 4));
        assert_eq!(b.get("per_run"), Value::Real(2.0));
        // The summary mean is over the cells' finite means.
        assert_eq!(b.get("x_mean"), Value::Real(1.0));
        let all = summary.row(2);
        assert_eq!((all.int("cells"), all.int("peak")), (3, 3));
        assert!(!all.flag("all_ok"));
        assert_eq!(all.get("x_mean"), Value::Real(1.5));
    }

    #[test]
    fn csv_writes_the_header_columns_in_order() {
        let runs = [run("a", 2, true, 0.5), run("b", 0, false, f64::NAN)];
        let mut rows = TABLE.runs(&runs);
        rows.push_column("note", vec![Value::None, Value::Fixed(1.0, 1)]);
        assert_eq!(
            rows.csv("n,key,all_ok,x_mean,note"),
            "n,key,all_ok,x_mean,note\n2,a,1,0.5000,\n0,b,0,NaN,1.0\n"
        );
        assert_eq!(rows.row(1).note("n", "lost"), "");
        assert_eq!(rows.row(0).note("n", "lost"), ", 2 lost");
    }

    #[test]
    #[should_panic(expected = "no column missing")]
    fn csv_rejects_an_unknown_column() {
        TABLE.runs(&[]).csv("key,missing");
    }
}
