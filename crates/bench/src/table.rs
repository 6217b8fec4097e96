//! The unit of experiment output: a titled table.
//!
//! Experiments return `Vec<Table>`; the harness renders tables as aligned
//! plain text (the `experiments --only` output), JSON documents (the
//! `--json` path and `bench_results.json`) or GitHub-flavoured markdown
//! (`EXPERIMENTS.md`).

use crate::print_series;

/// One titled table of experiment results. Cells are pre-formatted strings so
/// that text, JSON and markdown renderings are guaranteed to agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title (the paper's figure/table caption).
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows; every row has one cell per header column.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table from borrowed headers.
    pub fn new(title: impl Into<String>, header: &[&str], rows: Vec<Vec<String>>) -> Self {
        let table = Table {
            title: title.into(),
            header: header.iter().map(|h| h.to_string()).collect(),
            rows,
        };
        debug_assert!(
            table.rows.iter().all(|r| r.len() == table.header.len()),
            "every row of '{}' must match the header width",
            table.title
        );
        table
    }

    /// The JSON document for this table: the title under `"experiment"` and
    /// one string-valued object per row.
    pub fn to_json(&self) -> serde_json::Value {
        let records: Vec<serde_json::Value> = self
            .rows
            .iter()
            .map(|row| {
                let map: serde_json::Map<String, serde_json::Value> = self
                    .header
                    .iter()
                    .zip(row.iter())
                    .map(|(k, v)| (k.clone(), serde_json::Value::String(v.clone())))
                    .collect();
                serde_json::Value::Object(map)
            })
            .collect();
        serde_json::json!({ "experiment": self.title.clone(), "rows": records })
    }

    /// Renders the table as GitHub-flavoured markdown (title as bold text,
    /// pipe-escaped cells).
    pub fn to_markdown(&self) -> String {
        let escape = |cell: &str| cell.replace('|', "\\|");
        let mut out = String::new();
        out.push_str(&format!("**{}**\n\n", escape(&self.title)));
        out.push_str(&format!(
            "| {} |\n",
            self.header
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(" | ")
        ));
        out.push_str(&format!("|{}\n", " --- |".repeat(self.header.len().max(1))));
        for row in &self.rows {
            out.push_str(&format!(
                "| {} |\n",
                row.iter()
                    .map(|c| escape(c))
                    .collect::<Vec<_>>()
                    .join(" | ")
            ));
        }
        out
    }

    /// Prints the table as aligned plain-text columns.
    pub fn print_text(&self) {
        let header_refs: Vec<&str> = self.header.iter().map(|s| s.as_str()).collect();
        print_series(&self.title, &header_refs, &self.rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::new(
            "Demo",
            &["name", "value"],
            vec![
                vec!["a".to_string(), "1".to_string()],
                vec!["b|c".to_string(), "2".to_string()],
            ],
        )
    }

    #[test]
    fn json_matches_the_legacy_shape() {
        let json = serde_json::to_string(&sample().to_json()).unwrap();
        assert!(json.contains("\"experiment\""));
        assert!(json.contains("\"rows\""));
        assert!(json.contains("\"name\""));
    }

    #[test]
    fn markdown_escapes_pipes_and_has_a_separator() {
        let md = sample().to_markdown();
        assert!(md.contains("**Demo**"));
        assert!(md.contains("| name | value |"));
        assert!(md.contains("| --- | --- |"));
        assert!(md.contains("b\\|c"));
    }
}
