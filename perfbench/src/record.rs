//! The result record: named metrics with units, the operation tally, and
//! the provenance stamp, rendered as single-line JSON objects.

use std::fmt::Write as _;

/// One measured or computed value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Value as measured, all digits kept.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
}

/// Metrics plus the attempted / failed operation tally of one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (passes, requests, replayed batches).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
}

impl Tally {
    /// Records a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Counts one attempted operation and whether it was correct.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally's operation counts and metrics.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
    }
}

/// A JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number for `v`; non-finite values have no JSON form and are
/// rendered as `null` (the caller marks such a run incorrect).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON object from already-rendered `(key, value)` pairs.
pub fn json_obj<K: AsRef<str>>(fields: &[(K, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k.as_ref())))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON object mapping each metric's name to its value and unit.
pub fn metrics_obj<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> String {
    let fields: Vec<(String, String)> = metrics
        .into_iter()
        .map(|m| {
            let v = json_obj(&[("value", json_num(m.value)), ("unit", json_str(m.unit))]);
            (m.name.clone(), v)
        })
        .collect();
    json_obj(&fields)
}

/// The result line, the last line a run prints: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, tally: &Tally) -> String {
    json_obj(&[
        ("correct", correct.to_string()),
        ("attempted", tally.attempted.to_string()),
        ("failed", tally.failed.to_string()),
        ("metrics", metrics_obj(&tally.metrics)),
    ])
}

/// The `git` revision of the checkout, read from `.git` without running
/// `git` (the benchmark may run from an exported tree with no `.git`).
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (no .git)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_units() {
        let mut t = Tally::default();
        t.put("latency_ms.p50", 1.25, "ms");
        t.op(true);
        t.op(false);
        assert_eq!(
            result_line(false, &t),
            r#"{"correct": false, "attempted": 2, "failed": 1, "metrics": {"latency_ms.p50": {"value": 1.25, "unit": "ms"}}}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), r#""a\"b\\c\u000a""#);
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
    }
}
