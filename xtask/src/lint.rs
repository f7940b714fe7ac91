//! The lint rules the compiler cannot express, as pure functions over file
//! contents so every rule is unit-testable on seeded fixture strings. The
//! rules it can express live in the workspace `[lints]` table, the root
//! `clippy.toml` and attributes (DESIGN.md §7.4 maps each rule to its
//! enforcer).
//!
//! * **nested-vec** — the crates an access crosses (`suv-htm`, `suv-core`,
//!   `suv-coherence`, `suv-cache`, `suv-mem`, `suv-sig`) keep `Vec<Vec<`
//!   out of their non-test code: a vector of vectors is one heap block per
//!   row and a pointer chase per lookup, where the simulated structure it
//!   stands for (a tag array, a table) is one indexed lookup — keep it
//!   flat, rows side by side in one allocation. A per-core list that no
//!   access scans is allowed by a `// nested-vec-ok: <reason>` comment on
//!   the line or the line above.
//! * **invariant-coverage** — every `INV-n` catalogued in DESIGN.md must
//!   be referenced by at least one check in non-test code (a
//!   `debug_assert!`, a `suv-check` audit, or a `suv-verify` predicate —
//!   the invariant number is baked into the check's message string), so
//!   the catalogue cannot drift into wishful documentation.
//! * **build-definition** — `.cargo/config.toml` carries `lto = "fat"` and
//!   `codegen-units = 1` under `[profile.release]`, and no `Cargo.toml` in
//!   the tree sets either key, so the root workspace and `benchmark/`'s own
//!   cannot drift apart; and every member under `crates/` and `xtask`
//!   opts into the workspace lint table with `[lints] workspace = true`.
//!
//! The source rules read [`code_lines`]: a line whose trimmed text starts
//! with `//` is a comment (the tree has no `/*`), and everything from the
//! first `#[cfg(test)]` on is test code (the workspace convention keeps
//! test modules last).

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line, or 0 for whole-file findings.
    pub line: usize,
    /// Rule identifier.
    pub rule: &'static str,
    /// What is wrong.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}

/// The non-test code lines of a source file with their 1-based numbers:
/// comment lines dropped, cut at the first `#[cfg(test)]`.
pub fn code_lines(src: &str) -> impl Iterator<Item = (usize, &str)> {
    let lines = src.lines().enumerate().map(|(i, l)| (i + 1, l));
    let code = lines.filter(|(_, l)| !l.trim_start().starts_with("//"));
    code.take_while(|(_, l)| !l.contains("#[cfg(test)]"))
}

/// Crate directories whose non-test code the **nested-vec** rule covers.
const ACCESS_PATH_CRATES: [&str; 6] = ["htm", "core", "coherence", "cache", "mem", "sig"];

/// Flag `Vec<Vec<` in the non-test portion of a hot-path source file,
/// unless the line or the one above carries a `nested-vec-ok:` comment.
pub fn lint_nested_vec(file: &str, src: &str) -> Vec<Violation> {
    let lines: Vec<&str> = src.lines().collect();
    let marked =
        |n: usize| lines[n.saturating_sub(2)..n].iter().any(|l| l.contains("nested-vec-ok:"));
    code_lines(src)
        .filter(|&(n, l)| l.contains("Vec<Vec<") && !marked(n))
        .map(|(n, _)| Violation {
            file: file.to_string(),
            line: n,
            rule: "nested-vec",
            msg: "`Vec<Vec<_>>` on the access path: one heap block per row and a pointer \
                  chase per lookup; keep the rows side by side in one allocation, or mark \
                  a per-core list no access scans with `// nested-vec-ok: <reason>`"
                .to_string(),
        })
        .collect()
}

/// Every `INV-n` mention in `lines`, as `(n, line)` in text order.
fn invariant_mentions<'a>(lines: impl Iterator<Item = (usize, &'a str)>) -> Vec<(u32, usize)> {
    let mut out = Vec::new();
    for (n, line) in lines {
        for (at, _) in line.match_indices("INV-") {
            let digits: String = line[at + 4..].chars().take_while(char::is_ascii_digit).collect();
            if let Ok(num) = digits.parse() {
                out.push((num, n));
            }
        }
    }
    out
}

/// The invariant numbers a source file's non-test code checks: comment
/// lines don't count, strings do (that's where check messages name the
/// invariant).
pub fn invariant_refs(src: &str) -> Vec<u32> {
    invariant_mentions(code_lines(src)).into_iter().map(|(num, _)| num).collect()
}

/// Check that every invariant catalogued in DESIGN.md (`INV-n`) is among
/// `covered`, the numbers [`invariant_refs`] found in the workspace's
/// sources: a mention only in a comment or a test module is not coverage.
pub fn lint_invariant_coverage(design: &str, covered: &[u32]) -> Vec<Violation> {
    let mut seen = Vec::new();
    let mut out = Vec::new();
    for (num, line) in invariant_mentions(design.lines().enumerate().map(|(i, l)| (i + 1, l))) {
        if seen.contains(&num) {
            continue;
        }
        seen.push(num);
        if !covered.contains(&num) {
            out.push(Violation {
                file: "DESIGN.md".to_string(),
                line,
                rule: "invariant-coverage",
                msg: format!(
                    "INV-{num} is catalogued but never checked; reference it from a \
                     debug_assert!, a suv-check audit, or a suv-verify predicate"
                ),
            });
        }
    }
    out
}

/// The two keys of the release build definition, as `.cargo/config.toml`
/// must spell them under `[profile.release]`.
const BUILD_DEFINITION: [(&str, &str); 2] = [("lto", "\"fat\""), ("codegen-units", "1")];

/// The `(line, section, key, value)` of every `key = value` line of a TOML
/// text, comments dropped. (The subset the manifests here use: one pair
/// per line, section headers on their own line.)
fn toml_pairs(text: &str) -> Vec<(usize, String, String, String)> {
    let mut section = String::new();
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().to_string();
        } else if let Some((k, v)) = line.split_once('=') {
            out.push((i + 1, section.clone(), k.trim().to_string(), v.trim().to_string()));
        }
    }
    out
}

/// Check the one release build definition: `config` (`.cargo/config.toml`)
/// sets both keys under `[profile.release]`, and none of `manifests`
/// (`(path, text)` of every `Cargo.toml`) sets either anywhere.
pub fn lint_build_definition(config: &str, manifests: &[(String, String)]) -> Vec<Violation> {
    let mut out = Vec::new();
    let pairs = toml_pairs(config);
    for (key, want) in BUILD_DEFINITION {
        let set = pairs.iter().any(|(_, s, k, v)| s == "profile.release" && k == key && v == want);
        if !set {
            out.push(Violation {
                file: ".cargo/config.toml".to_string(),
                line: 0,
                rule: "build-definition",
                msg: format!("`[profile.release]` must set `{key} = {want}`"),
            });
        }
    }
    for (file, text) in manifests {
        for (line, _, key, _) in toml_pairs(text) {
            if BUILD_DEFINITION.iter().any(|(k, _)| *k == key) {
                out.push(Violation {
                    file: file.clone(),
                    line,
                    rule: "build-definition",
                    msg: format!(
                        "`{key}` set in a manifest: the release build definition lives in \
                         `.cargo/config.toml` alone, where both workspaces read it"
                    ),
                });
            }
        }
    }
    out
}

/// Check that a member's manifest opts into the workspace lint table:
/// without `[lints] workspace = true` the crate may unwrap, use `unsafe`,
/// and pedantic clippy is off.
pub fn lint_lints_opt_in(file: &str, manifest: &str) -> Vec<Violation> {
    let pairs = toml_pairs(manifest);
    if pairs.iter().any(|(_, s, k, v)| s == "lints" && k == "workspace" && v == "true") {
        return Vec::new();
    }
    vec![Violation {
        file: file.to_string(),
        line: 0,
        rule: "build-definition",
        msg: "member does not opt into the workspace lint table: add `[lints]` \
              `workspace = true`"
            .to_string(),
    }]
}

/// Recursively collect the files under `dir` that `wanted` accepts,
/// skipping `target/` and dot-directories.
fn files_under(dir: &Path, wanted: fn(&Path) -> bool, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && !name.to_string_lossy().starts_with('.') {
                files_under(&path, wanted, out)?;
            }
        } else if wanted(&path) {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

/// Recursively collect `.rs` files under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    files_under(dir, |p| p.extension().is_some_and(|e| e == "rs"), out)
}

/// Run every rule over the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    let rel =
        |p: &Path| -> String { p.strip_prefix(root).unwrap_or(p).to_string_lossy().into_owned() };

    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut covered = Vec::new();
    for crate_dir in &crate_dirs {
        let access_path =
            crate_dir.file_name().is_some_and(|n| ACCESS_PATH_CRATES.iter().any(|c| n == *c));
        let mut files = Vec::new();
        rust_files(crate_dir, &mut files)?;
        for f in &files {
            let src = fs::read_to_string(f)?;
            let name = rel(f);
            if access_path && name.contains("/src/") {
                violations.extend(lint_nested_vec(&name, &src));
            }
            covered.extend(invariant_refs(&src));
        }
    }
    covered.sort_unstable();
    covered.dedup();

    let mut manifests = Vec::new();
    files_under(root, |p| p.file_name().is_some_and(|n| n == "Cargo.toml"), &mut manifests)?;
    let manifests: Vec<(String, String)> = manifests
        .iter()
        .map(|p| Ok((rel(p), fs::read_to_string(p)?)))
        .collect::<io::Result<_>>()?;
    let config = fs::read_to_string(root.join(".cargo/config.toml"))?;
    violations.extend(lint_build_definition(&config, &manifests));
    let member = |f: &str| f == "xtask/Cargo.toml" || f.starts_with("crates/");
    for (file, text) in manifests.iter().filter(|(f, _)| member(f)) {
        violations.extend(lint_lints_opt_in(file, text));
    }

    let design = fs::read_to_string(root.join("DESIGN.md"))?;
    violations.extend(lint_invariant_coverage(&design, &covered));

    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_preserves_line_structure() {
        let src = "a\n    // b\nc // d\n/// e\n#[cfg(test)]\nf\n";
        let kept: Vec<_> = code_lines(src).collect();
        assert_eq!(kept, [(1, "a"), (3, "c // d")]);
    }

    #[test]
    fn nested_vec_flags_vectors_of_vectors_outside_tests() {
        let field = "struct T {\n    sets: Vec<Vec<Way>>,\n}\n";
        let v = lint_nested_vec("crates/cache/src/x.rs", field);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].line, v[0].rule), (2, "nested-vec"));
        let built =
            "fn f() {\n    let rows: Vec<Vec<u8>> = Vec::new();\n    g::<Vec<Vec<u8>>>();\n}\n";
        let lines: Vec<usize> = lint_nested_vec("f.rs", built).iter().map(|v| v.line).collect();
        assert_eq!(lines, [2, 3]);
    }

    #[test]
    fn nested_vec_accepts_flat_vectors_tests_and_marked_uses() {
        let flat = "struct T {\n    ways: Vec<Way>,\n    lens: Vec<u32>,\n    v: Vec<Box<[Vec<u8>]>>,\n}\n";
        assert!(lint_nested_vec("f.rs", flat).is_empty());
        let test_only =
            "fn f() {}\n#[cfg(test)]\nmod t { fn model() -> Vec<Vec<u8>> { vec![] } }\n";
        assert!(lint_nested_vec("f.rs", test_only).is_empty());
        let documented = "/// was a Vec<Vec<Way>> once\n    // and a Vec<Vec<u8>>\nfn f() {}\n";
        assert!(lint_nested_vec("f.rs", documented).is_empty());
        let above =
            "// nested-vec-ok: one list per core, drained at tx end\nstruct T(Vec<Vec<u64>>);\n";
        assert!(lint_nested_vec("f.rs", above).is_empty());
        let same_line = "struct T(Vec<Vec<u64>>); // nested-vec-ok: per-core stacks\n";
        assert!(lint_nested_vec("f.rs", same_line).is_empty());
        let marker_too_far = "// nested-vec-ok: stale\n\nstruct T(Vec<Vec<u64>>);\n";
        assert_eq!(lint_nested_vec("f.rs", marker_too_far).len(), 1);
        let wrong_marker = "// btree-ok: not this rule\nstruct T(Vec<Vec<u64>>);\n";
        assert_eq!(lint_nested_vec("f.rs", wrong_marker).len(), 1);
    }

    #[test]
    fn build_definition_lives_in_the_cargo_config_alone() {
        let config = "[alias]\nxtask = \"run\"\n\n[profile.release] # both workspaces\n\
                      lto = \"fat\"\ncodegen-units = 1\n";
        let manifest = |text: &str| vec![("Cargo.toml".to_string(), text.to_string())];
        let plain = manifest("[profile.release]\ndebug = \"line-tables-only\"\n# lto = true\n");
        assert!(lint_build_definition(config, &plain).is_empty());
        // A key missing, weakened, or under another profile.
        let thin = config.replace("\"fat\"", "\"thin\"");
        let v = lint_build_definition(&thin, &plain);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].file.as_str(), v[0].rule), (".cargo/config.toml", "build-definition"));
        let elsewhere = config.replace("[profile.release]", "[profile.bench]");
        assert_eq!(lint_build_definition(&elsewhere, &plain).len(), 2);
        assert_eq!(lint_build_definition("[alias]\n", &plain).len(), 2);
        // Either key in any manifest, whatever the value.
        let drifted = manifest("[package]\nname = \"x\"\n\n[profile.release]\nlto = \"fat\"\n");
        let v = lint_build_definition(config, &drifted);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].file.as_str(), v[0].line), ("Cargo.toml", 5));
        let units = manifest("[profile.bench]\ncodegen-units=16\n");
        assert_eq!(lint_build_definition(config, &units).len(), 1);
    }

    #[test]
    fn members_opt_into_the_workspace_lints() {
        let opted = "[package]\nname = \"x\"\n\n[lints]\nworkspace = true # one table\n";
        assert!(lint_lints_opt_in("crates/x/Cargo.toml", opted).is_empty());
        // Missing, switched off, commented out, or under another section.
        for text in [
            "[package]\nname = \"x\"\n",
            "[lints]\nworkspace = false\n",
            "[lints]\n# workspace = true\n",
            "[package]\nworkspace = true\n",
            "[lints.clippy]\nunwrap_used = \"allow\"\n",
        ] {
            let v = lint_lints_opt_in("crates/x/Cargo.toml", text);
            assert_eq!(v.len(), 1, "{text:?}");
            assert_eq!(
                (v[0].file.as_str(), v[0].rule),
                ("crates/x/Cargo.toml", "build-definition")
            );
        }
    }

    #[test]
    fn manifest_walk_reaches_both_workspaces() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("workspace root");
        let mut found = Vec::new();
        files_under(root, |p| p.file_name().is_some_and(|n| n == "Cargo.toml"), &mut found)
            .expect("walk");
        for m in ["Cargo.toml", "xtask/Cargo.toml", "benchmark/Cargo.toml", "crates/sim/Cargo.toml"]
        {
            assert!(found.contains(&root.join(m)), "{m} missing from the build-definition walk");
        }
    }

    #[test]
    fn invariant_coverage_spots_unchecked_invariants() {
        let design = "## Invariants\n* **INV-1** lines exclusive\n* **INV-2** no leaks\n";
        let v = lint_invariant_coverage(design, &[1]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "invariant-coverage");
        assert_eq!(v[0].line, 3);
        assert!(v[0].msg.contains("INV-2"), "{}", v[0].msg);
        assert!(lint_invariant_coverage(design, &[1, 2]).is_empty());
    }

    #[test]
    fn invariant_refs_ignore_comments_and_tests_but_count_strings() {
        let src = "// INV-1 documented only\n\
                   fn f() { assert!(ok, \"INV-2 violated\"); }\n\
                   #[cfg(test)]\nmod t { fn g() { check(\"INV-3\"); } }\n";
        let refs = invariant_refs(src);
        assert!(!refs.contains(&1), "comment mention must not count");
        assert!(refs.contains(&2), "check-message string must count");
        assert!(!refs.contains(&3), "test-module mention must not count");
    }

    #[test]
    fn workspace_walk_covers_the_oltp_crate() {
        // `lint_workspace` enumerates `crates/*`, so a new crate is linted
        // automatically — pin that the oltp subsystem's sources are on the
        // invariant walk and its manifest opts into the workspace lints.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("workspace root");
        let mut files = Vec::new();
        rust_files(&root.join("crates/oltp"), &mut files).expect("crates/oltp must exist");
        for f in ["traffic.rs", "workload.rs", "lib.rs"] {
            assert!(
                files.iter().any(|p| p.file_name().is_some_and(|n| n == f)),
                "crates/oltp/src/{f} missing from the lint walk"
            );
        }
        let manifest = fs::read_to_string(root.join("crates/oltp/Cargo.toml")).expect("manifest");
        assert!(lint_lints_opt_in("crates/oltp/Cargo.toml", &manifest).is_empty());
    }

    #[test]
    fn repo_is_clean() {
        // The real workspace must pass its own lint (the CI gate).
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("workspace root");
        let v = lint_workspace(root).expect("lint walk");
        assert!(
            v.is_empty(),
            "lint violations:\n{}",
            v.iter().map(std::string::ToString::to_string).collect::<Vec<_>>().join("\n")
        );
    }
}
