//! CLI for the workspace static-analysis pass.
//!
//! ```text
//! cargo xtask lint               # report violations, exit 1 if any
//! cargo xtask lint --deny        # also fail on warnings (CI mode)
//! cargo xtask lint path/a.rs …   # lint a subset of files
//! cargo xtask lint --explain     # print the lint catalog
//! cargo xtask lint --waivers     # list every honored waiver with its reason
//! cargo xtask lint --json        # machine-readable report on stdout
//! cargo xtask lint --format github  # ::error annotations for GitHub CI
//! ```

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::{collect_files, lints, rel_str, Config};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint_cmd(&args[1..]),
        Some(other) => {
            eprintln!("unknown xtask command `{other}`; available: lint");
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "usage: cargo xtask lint [--deny] [--quiet] [--explain] [--waivers] [files…]"
            );
            ExitCode::FAILURE
        }
    }
}

fn workspace_root() -> PathBuf {
    // The xtask manifest lives at <root>/crates/xtask; walking up from the
    // compile-time manifest dir is robust to the caller's CWD.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Output format for the lint report.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Github,
}

fn lint_cmd(args: &[String]) -> ExitCode {
    let mut deny = false;
    let mut quiet = false;
    let mut explain = false;
    let mut waivers = false;
    let mut format = Format::Text;
    let mut want_format = false;
    let mut files: Vec<PathBuf> = Vec::new();
    for arg in args {
        if want_format {
            want_format = false;
            format = match arg.as_str() {
                "text" => Format::Text,
                "json" => Format::Json,
                "github" => Format::Github,
                other => {
                    eprintln!("unknown format `{other}`; available: text, json, github");
                    return ExitCode::FAILURE;
                }
            };
            continue;
        }
        match arg.as_str() {
            "--deny" => deny = true,
            "--quiet" | "-q" => quiet = true,
            "--explain" => explain = true,
            "--waivers" => waivers = true,
            "--json" => format = Format::Json,
            "--format" => want_format = true,
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
            path => files.push(PathBuf::from(path)),
        }
    }
    if want_format {
        eprintln!("--format needs a value: text, json, or github");
        return ExitCode::FAILURE;
    }

    if explain {
        println!("workspace lints (waive with `// lint:allow(<ID>): <reason>`):");
        for lint in lints::LINTS {
            println!("  {}  {}", lint.id, lint.summary);
        }
        return ExitCode::SUCCESS;
    }

    let root = workspace_root();
    let cfg = match Config::load(&root) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let files = if files.is_empty() {
        collect_files(&root, &cfg)
    } else {
        files
            .into_iter()
            .map(|f| if f.is_absolute() { f } else { root.join(f) })
            .collect()
    };

    if waivers {
        return list_waivers(&root, &files);
    }

    let report = xtask::run(&root, &files, &cfg);
    let violations = report
        .diagnostics
        .iter()
        .filter(|d| d.lint != "L000")
        .count();
    let warnings = report.diagnostics.len() - violations;
    let fail = violations > 0 || (deny && warnings > 0);

    match format {
        Format::Json => print!("{}", render_json(&report, violations, warnings)),
        Format::Github => print!("{}", render_github(&report)),
        Format::Text => {
            if !quiet {
                for d in &report.diagnostics {
                    println!("{}:{}: [{}] {}", d.file, d.line, d.lint, d.message);
                }
            }
            if !quiet || fail {
                println!(
                    "xtask lint: {violations} violation(s), {warnings} warning(s), {} waived, {} file(s)",
                    report.waived, report.files
                );
            }
        }
    }
    if fail {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Renders the report as one JSON object (no external deps, so the
/// encoder is hand-rolled; [`json_escape`] covers everything lint
/// messages can contain).
fn render_json(report: &xtask::Report, violations: usize, warnings: usize) -> String {
    let mut out = String::from("{\n  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            json_escape(&d.lint),
            json_escape(&d.file),
            d.line,
            json_escape(&d.message)
        ));
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"violations\": {violations},\n  \"warnings\": {warnings},\n  \"waived\": {},\n  \"files\": {}\n}}\n",
        report.waived, report.files
    ));
    out
}

/// Renders GitHub Actions workflow annotations (`::error`/`::warning`),
/// which the CI static-analysis job emits so findings land on the PR
/// diff. `L000` (waiver hygiene) annotates as a warning, real lints as
/// errors.
fn render_github(report: &xtask::Report) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let level = if d.lint == "L000" { "warning" } else { "error" };
        out.push_str(&format!(
            "::{level} file={},line={},title={}::{}\n",
            d.file,
            d.line,
            d.lint,
            gh_escape(&d.message)
        ));
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The workflow-command data escaping GitHub requires (`%`, CR, LF).
fn gh_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Prints every honored waiver as `file:line [IDs] reason`, so reviewers
/// can audit the full exception surface in one listing.
fn list_waivers(root: &Path, files: &[PathBuf]) -> ExitCode {
    let mut count = 0usize;
    for path in files {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let rel = rel_str(path, root);
        for (l, line) in text.lines().enumerate() {
            if let Some(at) = line.find("lint:allow") {
                println!("{}:{}: {}", rel, l + 1, line[at..].trim());
                count += 1;
            }
        }
    }
    println!("{count} waiver(s)");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtask::lints::Diagnostic;

    fn sample() -> xtask::Report {
        xtask::Report {
            diagnostics: vec![
                Diagnostic {
                    lint: "L003".into(),
                    file: "crates/a/src/lib.rs".into(),
                    line: 7,
                    message: "allocation in hot path: `vec![\"x\"]`".into(),
                },
                Diagnostic {
                    lint: "L000".into(),
                    file: "crates/b/src/lib.rs".into(),
                    line: 2,
                    message: "waiver has no reason\nsecond line, 50% done".into(),
                },
            ],
            files: 2,
            waived: 1,
        }
    }

    #[test]
    fn json_output_is_escaped_and_complete() {
        let json = render_json(&sample(), 1, 1);
        assert!(json.contains(r#""lint": "L003""#));
        assert!(json.contains(r#"`vec![\"x\"]`"#), "quotes must be escaped");
        assert!(
            json.contains(r#"\nsecond line"#),
            "newlines must be escaped"
        );
        assert!(json.contains(r#""violations": 1"#));
        assert!(json.contains(r#""waived": 1"#));
        // Must stay parseable by eye: balanced braces, one per diagnostic
        // plus the envelope.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn github_annotations_escape_workflow_metacharacters() {
        let gh = render_github(&sample());
        assert!(gh.contains("::error file=crates/a/src/lib.rs,line=7,title=L003::"));
        assert!(gh.contains("::warning file=crates/b/src/lib.rs,line=2,title=L000::"));
        assert!(gh.contains("%0Asecond line"), "LF must be %0A-escaped");
        assert!(gh.contains("50%25 done"), "% must be %25-escaped");
    }

    #[test]
    fn empty_report_renders_cleanly() {
        let empty = xtask::Report {
            diagnostics: Vec::new(),
            files: 0,
            waived: 0,
        };
        assert_eq!(render_github(&empty), "");
        let json = render_json(&empty, 0, 0);
        assert!(json.contains("\"diagnostics\": []"));
    }
}
