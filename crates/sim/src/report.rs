//! Report rendering: the figure harness's text tables and CSV output.
//!
//! A [`Series`] is one plotted line (x values + y values per x,
//! averaged over repetitions); a [`Figure`] is a set of series sharing
//! an x axis — exactly the structure of the paper's Figs. 5–9.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::SimError;

/// One line of a figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label (e.g. `"on-demand"`).
    pub label: String,
    /// y value per x position (same length as the figure's `x`).
    pub y: Vec<f64>,
}

/// A reproduced figure: shared x axis, labelled series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure {
    /// Figure identifier, e.g. `"fig6a"`.
    pub id: String,
    /// Axis/plot title.
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// y-axis label.
    pub y_label: String,
    /// The x positions.
    pub x: Vec<f64>,
    /// The plotted series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Renders the figure as an aligned text table (x down the rows,
    /// one column per series) — the form EXPERIMENTS.md embeds.
    ///
    /// # Panics
    ///
    /// Panics if any series' length differs from `x.len()`.
    #[must_use]
    pub fn to_table(&self) -> String {
        for s in &self.series {
            assert_eq!(s.y.len(), self.x.len(), "series {} length mismatch", s.label);
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let _ = write!(out, "{:>14}", self.x_label);
        for s in &self.series {
            let _ = write!(out, "{:>16}", s.label);
        }
        let _ = writeln!(out);
        for (i, x) in self.x.iter().enumerate() {
            let _ = write!(out, "{x:>14.1}");
            for s in &self.series {
                let _ = write!(out, "{:>16.4}", s.y[i]);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Renders the figure as CSV (`x,label1,label2,...`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", csv_escape(&self.x_label));
        for s in &self.series {
            let _ = write!(out, ",{}", csv_escape(&s.label));
        }
        let _ = writeln!(out);
        for (i, x) in self.x.iter().enumerate() {
            let _ = write!(out, "{x}");
            for s in &self.series {
                let _ = write!(out, ",{}", s.y[i]);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Writes the CSV rendering to `path`.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] on filesystem failure.
    pub fn write_csv(&self, path: &std::path::Path) -> Result<(), SimError> {
        std::fs::write(path, self.to_csv()).map_err(SimError::from)
    }

    /// Renders the figure as a JSON object (hand-rolled writer — the
    /// approved dependency set has serde but no format crate). Numbers
    /// use `f64`'s shortest round-trip formatting; NaN/∞ become `null`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"id\":{}", json_string(&self.id));
        let _ = write!(out, ",\"title\":{}", json_string(&self.title));
        let _ = write!(out, ",\"x_label\":{}", json_string(&self.x_label));
        let _ = write!(out, ",\"y_label\":{}", json_string(&self.y_label));
        let _ = write!(out, ",\"x\":{}", json_numbers(&self.x));
        out.push_str(",\"series\":[");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ =
                write!(out, "{{\"label\":{},\"y\":{}}}", json_string(&s.label), json_numbers(&s.y));
        }
        out.push_str("]}");
        out
    }

    /// Renders the figure as a terminal-friendly ASCII line chart:
    /// one glyph per series (`*`, `o`, `x`, …), y scaled into `height`
    /// rows, x mapped across `width` columns, with min/max labels. When
    /// several series hit the same cell the later series' glyph wins.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is < 2, or a series' length
    /// differs from `x.len()`.
    #[must_use]
    pub fn to_ascii_chart(&self, width: usize, height: usize) -> String {
        assert!(width >= 2 && height >= 2, "chart must be at least 2x2");
        for s in &self.series {
            assert_eq!(s.y.len(), self.x.len(), "series {} length mismatch", s.label);
        }
        const GLYPHS: [char; 6] = ['*', 'o', 'x', '+', '#', '@'];
        let ys: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.y.iter().copied())
            .filter(|v| v.is_finite())
            .collect();
        let (lo, hi) = match (
            ys.iter().copied().fold(f64::INFINITY, f64::min),
            ys.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        ) {
            (lo, hi) if lo.is_finite() && hi.is_finite() => {
                if lo == hi {
                    (lo - 1.0, hi + 1.0)
                } else {
                    (lo, hi)
                }
            }
            _ => (0.0, 1.0),
        };
        let mut grid = vec![vec![' '; width]; height];
        let n = self.x.len();
        for (si, s) in self.series.iter().enumerate() {
            let glyph = GLYPHS[si % GLYPHS.len()];
            for (i, &v) in s.y.iter().enumerate() {
                if !v.is_finite() {
                    continue;
                }
                let col = if n <= 1 { 0 } else { i * (width - 1) / (n - 1) };
                let frac = (v - lo) / (hi - lo);
                let row = ((1.0 - frac) * (height - 1) as f64).round() as usize;
                grid[row.min(height - 1)][col] = glyph;
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{} — {}", self.id, self.title);
        for (r, row) in grid.iter().enumerate() {
            let label = if r == 0 {
                format!("{hi:>10.2}")
            } else if r == height - 1 {
                format!("{lo:>10.2}")
            } else {
                " ".repeat(10)
            };
            let _ = writeln!(out, "{label} |{}", row.iter().collect::<String>());
        }
        let _ = writeln!(out, "{} +{}", " ".repeat(10), "-".repeat(width));
        let _ = writeln!(
            out,
            "{}  {} = {:?} .. {:?}",
            " ".repeat(10),
            self.x_label,
            self.x.first().copied().unwrap_or(0.0),
            self.x.last().copied().unwrap_or(0.0)
        );
        for (si, s) in self.series.iter().enumerate() {
            let _ = writeln!(out, "{}  {} {}", " ".repeat(10), GLYPHS[si % GLYPHS.len()], s.label);
        }
        out
    }

    /// Renders the figure as a GitHub-flavoured markdown table.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        let _ = write!(out, "| {} |", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {} |", s.label);
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|");
        for _ in &self.series {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for (i, x) in self.x.iter().enumerate() {
            let _ = write!(out, "| {x} |");
            for s in &self.series {
                let _ = write!(out, " {:.4} |", s.y[i]);
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// A multi-figure document (what the figure harness writes with
/// `--report`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Document title.
    pub title: String,
    /// Free-form introduction (parameters, provenance).
    pub preamble: String,
    /// The figures, in presentation order.
    pub figures: Vec<Figure>,
}

impl Report {
    /// Renders the whole report as markdown.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}\n", self.title);
        if !self.preamble.is_empty() {
            let _ = writeln!(out, "{}\n", self.preamble);
        }
        for f in &self.figures {
            let _ = writeln!(out, "{}", f.to_markdown());
        }
        out
    }

    /// Writes the markdown rendering to `path`.
    ///
    /// # Errors
    ///
    /// [`SimError::Io`] on filesystem failure.
    pub fn write_markdown(&self, path: &std::path::Path) -> Result<(), SimError> {
        std::fs::write(path, self.to_markdown()).map_err(SimError::from)
    }
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", paydemand_obs::json_escape(s))
}

fn json_numbers(values: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if v.is_finite() {
            let _ = write!(out, "{v}");
        } else {
            out.push_str("null");
        }
    }
    out.push(']');
    out
}

fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure() -> Figure {
        Figure {
            id: "fig6a".into(),
            title: "Coverage vs users".into(),
            x_label: "users".into(),
            y_label: "coverage %".into(),
            x: vec![40.0, 60.0],
            series: vec![
                Series { label: "on-demand".into(), y: vec![100.0, 100.0] },
                Series { label: "fixed".into(), y: vec![92.5, 94.0] },
            ],
        }
    }

    #[test]
    fn table_contains_everything() {
        let t = figure().to_table();
        assert!(t.contains("fig6a"));
        assert!(t.contains("on-demand"));
        assert!(t.contains("fixed"));
        assert!(t.contains("92.5000"));
        assert!(t.contains("40.0"));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let c = figure().to_csv();
        let lines: Vec<&str> = c.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "users,on-demand,fixed");
        assert_eq!(lines[1], "40,100,92.5");
    }

    #[test]
    fn csv_escapes_special_fields() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn table_rejects_ragged_series() {
        let mut f = figure();
        f.series[0].y.pop();
        let _ = f.to_table();
    }

    #[test]
    fn json_is_well_formed() {
        let j = figure().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"id\":\"fig6a\""));
        assert!(j.contains("\"x\":[40,60]"));
        assert!(j.contains("\"label\":\"on-demand\""));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn json_escapes_and_non_finite() {
        let mut f = figure();
        f.title = "quote \" slash \\ newline \n ctrl \u{1}".into();
        f.series[0].y[0] = f64::NAN;
        let j = f.to_json();
        assert!(j.contains(r#"quote \" slash \\ newline \n ctrl \u0001"#));
        assert!(j.contains("null"));
    }

    #[test]
    fn markdown_table_shape() {
        let md = figure().to_markdown();
        let lines: Vec<&str> = md.trim().lines().collect();
        assert!(lines[0].starts_with("### fig6a"));
        assert_eq!(lines[2], "| users | on-demand | fixed |");
        assert_eq!(lines[3], "|---|---|---|");
        assert!(lines[4].starts_with("| 40 |"));
    }

    #[test]
    fn ascii_chart_renders_and_scales() {
        let chart = figure().to_ascii_chart(40, 10);
        // Legend, axis labels and both glyphs appear.
        assert!(chart.contains("* on-demand"));
        assert!(chart.contains("o fixed"));
        assert!(chart.contains("users"));
        assert!(chart.contains("100.00"), "max label");
        assert!(chart.contains("92.50"), "min label");
        // The high series must land on the top row.
        let top_row = chart.lines().nth(1).unwrap();
        assert!(top_row.contains('*'), "top row: {top_row}");
    }

    #[test]
    fn ascii_chart_flat_series_do_not_divide_by_zero() {
        let f =
            Figure { series: vec![Series { label: "flat".into(), y: vec![5.0, 5.0] }], ..figure() };
        let chart = f.to_ascii_chart(20, 5);
        assert!(chart.contains('*'));
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn ascii_chart_rejects_degenerate_size() {
        let _ = figure().to_ascii_chart(1, 10);
    }

    #[test]
    fn report_composes_figures() {
        let r = Report {
            title: "Reproduction".into(),
            preamble: "100 reps".into(),
            figures: vec![figure(), figure()],
        };
        let md = r.to_markdown();
        assert!(md.starts_with("# Reproduction"));
        assert!(md.contains("100 reps"));
        assert_eq!(md.matches("### fig6a").count(), 2);

        let dir = std::env::temp_dir().join("paydemand_report_md_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.md");
        r.write_markdown(&path).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().contains("# Reproduction"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_csv_to_disk() {
        let dir = std::env::temp_dir().join("paydemand_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig.csv");
        figure().write_csv(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("users,"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
