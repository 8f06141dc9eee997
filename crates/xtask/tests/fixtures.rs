//! Fixture-based self-tests: every lint has one failing and one passing
//! fixture under `fixtures/`. Each fixture is linted under a *pseudo-path*
//! that places it in the lint's scope according to the real workspace
//! `lint.toml`, so these tests also pin the shipped configuration (e.g. if
//! `crates/kernels/src/spmm.rs` ever left the hot list, the L003/L005
//! fixtures would stop tripping and fail here).
//!
//! Global lints (L009–L012) run through the same harness via
//! [`xtask::lint_scanned`]; the L009 case adds a companion "hot driver"
//! file so the violation really is two call-graph hops away from the hot
//! entry point, in a different file.
//!
//! The fixtures directory itself is excluded from workspace scans both by
//! `lint.toml` (`[scan] skip`) and by the walker's hard skip list, so the
//! deliberately-bad files never pollute `cargo xtask lint`.

use std::path::{Path, PathBuf};
use xtask::lexer::SourceFile;
use xtask::lints::Diagnostic;
use xtask::Config;

/// Pseudo-path inside the hot list (`[hot] paths` in lint.toml).
const HOT: &str = "crates/kernels/src/spmm.rs";
/// Pseudo-path in a kernel crate: in scope for L004 (`[dim-check]`),
/// L007 (`[docs]`), and outside the spawn/relaxed allow-lists.
const KERNEL_SRC: &str = "crates/kernels/src/fixture.rs";
/// Pseudo-path inside the exchange list (`[exchange] paths`).
const EXCHANGE: &str = "crates/shard/src/exec.rs";

/// (lint ID, failing fixture, passing fixture, pseudo-path,
/// companion (fixture, pseudo-path) linted alongside both).
type Case = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    Option<(&'static str, &'static str)>,
);
const CASES: &[Case] = &[
    ("L001", "l001_bad.rs", "l001_good.rs", KERNEL_SRC, None),
    ("L002", "l002_bad.rs", "l002_good.rs", KERNEL_SRC, None),
    ("L003", "l003_bad.rs", "l003_good.rs", HOT, None),
    ("L004", "l004_bad.rs", "l004_good.rs", KERNEL_SRC, None),
    ("L005", "l005_bad.rs", "l005_good.rs", HOT, None),
    ("L006", "l006_bad.rs", "l006_good.rs", KERNEL_SRC, None),
    ("L007", "l007_bad.rs", "l007_good.rs", KERNEL_SRC, None),
    ("L008", "l008_bad.rs", "l008_good.rs", HOT, None),
    // The hot driver calls `l009_helper_hop_one`, putting the fixture's
    // violation two hops from the hot entry, across files.
    (
        "L009",
        "l009_bad.rs",
        "l009_good.rs",
        KERNEL_SRC,
        Some(("l009_hot.rs", HOT)),
    ),
    ("L010", "l010_bad.rs", "l010_good.rs", KERNEL_SRC, None),
    ("L011", "l011_bad.rs", "l011_good.rs", KERNEL_SRC, None),
    ("L012", "l012_bad.rs", "l012_good.rs", EXCHANGE, None),
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn workspace_config() -> Config {
    Config::load(&workspace_root()).expect("workspace lint.toml parses")
}

fn read_fixture(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(file);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

fn lint_fixture(
    file: &str,
    pseudo_path: &str,
    companion: Option<(&str, &str)>,
    cfg: &Config,
) -> Vec<Diagnostic> {
    let mut files = vec![(
        pseudo_path.to_string(),
        SourceFile::scan(&read_fixture(file)),
    )];
    if let Some((cf, cp)) = companion {
        files.push((cp.to_string(), SourceFile::scan(&read_fixture(cf))));
    }
    xtask::lint_scanned(&files, cfg).diagnostics
}

#[test]
fn every_lint_has_a_case() {
    let seen: Vec<&str> = CASES.iter().map(|c| c.0).collect();
    for info in xtask::LINTS {
        assert!(seen.contains(&info.id), "no fixture case for {}", info.id);
    }
}

#[test]
fn failing_fixtures_trip_their_lint() {
    let cfg = workspace_config();
    for (lint, bad, _, pseudo, companion) in CASES {
        let diags = lint_fixture(bad, pseudo, *companion, &cfg);
        let hits: Vec<&Diagnostic> = diags.iter().filter(|d| d.lint == *lint).collect();
        assert!(
            !hits.is_empty(),
            "{bad} (as {pseudo}) should trip {lint}; got only {diags:?}"
        );
        for d in hits {
            assert!(
                d.line > 0,
                "{lint} diagnostic has no line attribution: {d:?}"
            );
            assert_eq!(d.file, *pseudo);
        }
    }
}

#[test]
fn passing_fixtures_are_clean_for_their_lint() {
    let cfg = workspace_config();
    for (lint, _, good, pseudo, companion) in CASES {
        let diags = lint_fixture(good, pseudo, *companion, &cfg);
        let hits: Vec<&Diagnostic> = diags.iter().filter(|d| d.lint == *lint).collect();
        assert!(
            hits.is_empty(),
            "{good} (as {pseudo}) should be clean for {lint}; got {hits:?}"
        );
        // Waiver-carrying fixtures must not leak L000 (malformed/unused
        // waiver) diagnostics either.
        assert!(
            !diags.iter().any(|d| d.lint == "L000"),
            "{good} has waiver problems: {diags:?}"
        );
    }
}

#[test]
fn l009_violation_is_two_hops_from_the_hot_entry() {
    // Pin the acceptance-criterion shape: the flagged line is in a file
    // that is NOT on the hot list, and the witness chain names both hops.
    let cfg = workspace_config();
    assert!(!Config::path_in(KERNEL_SRC, &cfg.hot_paths));
    let diags = lint_fixture("l009_bad.rs", KERNEL_SRC, Some(("l009_hot.rs", HOT)), &cfg);
    let hit = diags
        .iter()
        .find(|d| d.lint == "L009" && d.message.contains(".unwrap()"))
        .expect("allocating/unwrapping helper two hops out must be flagged");
    assert!(
        hit.message
            .contains("hot_entry -> l009_helper_hop_one -> l009_helper_hop_two"),
        "witness chain missing: {}",
        hit.message
    );
}

#[test]
fn fixtures_are_excluded_from_workspace_scans() {
    let cfg = workspace_config();
    let files = xtask::collect_files(&workspace_root(), &cfg);
    for f in &files {
        let rel = xtask::rel_str(f, &workspace_root());
        assert!(
            !rel.contains("xtask/fixtures"),
            "fixture {rel} leaked into the workspace scan"
        );
    }
}

// --- lexer regression fixtures ---------------------------------------------
// Edge cases found while building the symbol resolver: these pin the
// lexer/resolver behavior on syntax that once confused lexical scanning.

#[test]
fn lexer_raw_strings_with_many_hashes_do_not_swallow_code() {
    let src = "fn f() {\n    let s = r###\"quote \"## inside\"###;\n    x.unwrap();\n}\n";
    let sf = SourceFile::scan(src);
    // The raw string's body is scrubbed; the unwrap after it is still code.
    assert!(!sf.code(1).contains("inside"));
    assert!(sf.code(2).contains(".unwrap()"));
    // An unterminated-looking prefix with fewer closing hashes must not
    // terminate early.
    let tricky = "fn f() {\n    let s = r##\"one \"# two\"##;\n    y.unwrap();\n}\n";
    let sf = SourceFile::scan(tricky);
    assert!(sf.code(2).contains(".unwrap()"));
}

#[test]
fn lexer_raw_identifiers_are_code_not_strings() {
    let src = "fn r#match(r#type: u32) -> u32 {\n    r#type + 1\n}\n";
    let sf = SourceFile::scan(src);
    // `r#match` must not be mistaken for a raw-string start: the fn body
    // stays visible as code.
    assert!(sf.code(1).contains("+ 1"), "{:?}", sf.code_lines);
    // And the resolver normalizes the identifier.
    let files = vec![("crates/a/src/x.rs".to_string(), sf)];
    let ws = xtask::symbols::Workspace::build(&files);
    assert!(ws.fns().iter().any(|f| f.name == "match"));
}

#[test]
fn resolver_distinguishes_turbofish_from_comparison() {
    let src = "fn f() -> usize {\n    let v = parse::<Vec<Option<u32>>>(s);\n    if a < b { g(); }\n    v.len()\n}\nfn g() {}\nfn parse(s: &str) -> usize { s.len() }\n";
    let files = vec![("crates/a/src/x.rs".to_string(), SourceFile::scan(src))];
    let ws = xtask::symbols::Workspace::build(&files);
    let f = ws
        .fns()
        .iter()
        .find(|d| d.name == "f")
        .expect("fn f collected");
    // The nested-turbofish call resolves to `parse`; the `<` comparison
    // does not hide the call to `g`.
    let names: Vec<&str> = f.calls.iter().map(|c| c.name.as_str()).collect();
    assert!(names.contains(&"parse"), "{names:?}");
    assert!(names.contains(&"g"), "{names:?}");
}
