//! The metric table and the values a run measured against it.
//!
//! `BENCHMARK.json` at the repository root is the one declaration of
//! every metric's name and unit: its `end_to_end` list is what an
//! untraced run reports, its `per_layer` list what a traced run
//! reports. A run that sets a value under a name the table does not
//! declare fails, so a misspelt or renamed metric cannot read as 0.

use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// `(name, unit)` pairs of the two metric lists, in declaration order.
#[derive(Debug, Clone, Default)]
pub struct Table {
    pub end_to_end: Vec<(String, String)>,
    pub per_layer: Vec<(String, String)>,
}

fn metric_list(root: &Value, key: &str) -> Result<Vec<(String, String)>, String> {
    let Some(Value::Seq(items)) = root.get(key) else {
        return Err(format!("no {key:?} list"));
    };
    items
        .iter()
        .map(|item| match (item.get("name"), item.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => Ok((n.clone(), u.clone())),
            _ => Err(format!("a {key:?} entry lacks a name or unit")),
        })
        .collect()
}

impl Table {
    /// Reads the metric lists of a `BENCHMARK.json`.
    pub fn load(path: &Path) -> Result<Table, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let root: Value =
            serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        Ok(Table {
            end_to_end: metric_list(&root, "end_to_end")?,
            per_layer: metric_list(&root, "per_layer")?,
        })
    }

    /// The declared unit of `name`.
    pub fn unit(&self, name: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|(n, _)| n == name)
            .map(|(_, u)| u.as_str())
    }
}

/// Measured values by metric name; a metric never set reads 0 in the
/// result line and `n/a` in the report.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn get(&self, name: &str) -> f64 {
        self.value(name).unwrap_or(0.0)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    /// `(name, value, unit)` for every metric of `list`.
    pub fn rows<'a>(&self, list: &'a [(String, String)]) -> Vec<(&'a str, f64, &'a str)> {
        list.iter()
            .map(|(n, u)| (n.as_str(), self.get(n), u.as_str()))
            .collect()
    }
}
