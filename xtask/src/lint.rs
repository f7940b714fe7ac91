//! The custom lint rules, as pure functions over file contents so every
//! rule is unit-testable on seeded fixture strings.
//!
//! Rules (see DESIGN.md §7.4):
//!
//! * **entropy** — simulation crates must be bit-deterministic: no
//!   `SystemTime`, `Instant::now`, `thread_rng`, `from_entropy` or
//!   `rand::random` anywhere under `crates/` except `crates/bench` (the
//!   harness may time wall-clock; seeded `StdRng` use is fine anywhere).
//! * **unwrap** — no `.unwrap()` in non-test library code; `.expect("...")`
//!   with a message stating the invariant is the accepted alternative.
//! * **forbid-unsafe** — every workspace crate root carries
//!   `#![forbid(unsafe_code)]`.
//! * **vm-impl** — every `impl VersionManager for` block's file defines
//!   the full `commit`/`abort` pair, and a file that overrides
//!   `begin_level` also overrides `commit_level` *and* `abort_level`
//!   (a partial nesting implementation corrupts rollback silently). The
//!   closed-world `impl VersionManager for Vm` (`sim/scheme.rs`) must define
//!   *every* method the trait in `htm/vm.rs` declares: a default inherited
//!   by the enum would switch a scheme's own override off without a compile
//!   error.
//! * **trace-reconcile** — every `TraceEvent` variant has its own arm in
//!   `TraceEvent::decode`, the one match that yields kind id, payload and
//!   magnitude (no catch-all arm may absorb a newly added variant, or
//!   hashes and metrics silently lose events).
//! * **invariant-coverage** — every `INV-n` catalogued in DESIGN.md must
//!   be referenced by at least one check in non-test code (a
//!   `debug_assert!`, a `suv-check` audit, or a `suv-verify` predicate —
//!   the invariant number is baked into the check's message string), so
//!   the catalogue cannot drift into wishful documentation.
//! * **siphash** / **btree** — the crates an access crosses (`suv-htm`,
//!   `suv-core`, `suv-coherence`, `suv-cache`, `suv-mem`, `suv-sig`) keep
//!   `std::collections::{HashMap, HashSet}` out of their non-test code:
//!   SipHash costs more than the bookkeeping it indexes, and its
//!   per-process key makes iteration order a determinism hazard. The
//!   `suv_types` `LineMap` / `LineSet` / `WordMap` / `FxHashMap` containers
//!   replace them. `std::collections::{BTreeMap, BTreeSet}` stay out too:
//!   a search that deepens with a transaction's size on every access is
//!   the cost DESIGN.md §6 rules out — hash, and sort once where an order
//!   is needed. A use off the simulated path is allowed by a
//!   `// siphash-ok: <reason>` (resp. `// btree-ok: <reason>`) comment on
//!   the line or the line above.
//! * **nested-vec** — the same six crates keep `Vec<Vec<` out of their
//!   non-test code: a vector of vectors is one heap block per row and a
//!   pointer chase per lookup, where the simulated structure it stands for
//!   (a tag array, a table) is one indexed lookup — keep it flat, rows side
//!   by side in one allocation. A per-core list that no access scans is
//!   allowed by a `// nested-vec-ok: <reason>` comment, same placement.
//! * **dyn-vm** — no `dyn VersionManager` in non-test code under `crates/`:
//!   the scheme set is closed (`sim::Vm`) and the machine is generic over
//!   it, so every scheme call on the access path is a static one.
//! * **build-definition** — `.cargo/config.toml` carries `lto = "fat"` and
//!   `codegen-units = 1` under `[profile.release]`, and no `Cargo.toml` in
//!   the tree sets either key, so the root workspace and `benchmark/`'s own
//!   cannot drift apart.
//!
//! The content rules match on a *token-aware scrub* of each source file
//! ([`strip_noncode`]): comments (line, doc and nested block) and —
//! where the rule wants it — string/char literals are blanked to spaces
//! before matching, with line structure preserved so reported line
//! numbers stay exact. This keeps `thread_rng` in a doc comment or
//! `.unwrap()` inside an error-message string from false-positiving.

use std::collections::BTreeSet;
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

/// Does this trimmed line carry any executable code? (Comment and doc
/// lines are exempt from the content rules.)
fn is_comment(trimmed: &str) -> bool {
    trimmed.starts_with("//") || trimmed.starts_with("//!") || trimmed.starts_with("///")
}

/// What [`strip_noncode`] blanks out before a rule matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strip {
    /// Blank comments only; string literals survive. Used by rules that
    /// *want* to see strings (invariant numbers live in check messages).
    Comments,
    /// Blank comments and string/char literals. Used by rules matching
    /// executable tokens, so quoted or documented mentions never trip.
    CommentsAndStrings,
}

/// Token-aware scrub: return a copy of `src` with comments (line, doc,
/// and nested block) — and under [`Strip::CommentsAndStrings`] also
/// string, raw-string, byte-string and char literals — replaced by
/// spaces. Newlines inside stripped regions are preserved, so the output
/// has the same line structure as the input and per-line rule matching
/// keeps exact line numbers.
pub fn strip_noncode(src: &str, mode: Strip) -> String {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = String::with_capacity(src.len());
    let strip_strings = mode == Strip::CommentsAndStrings;
    let blank = |out: &mut String, chars: &[char]| {
        for &c in chars {
            out.push(if c == '\n' { '\n' } else { ' ' });
        }
    };
    let copy_or_blank = |out: &mut String, chars: &[char], strip: bool| {
        if strip {
            blank(out, chars);
        } else {
            out.extend(chars.iter().copied());
        }
    };
    let mut i = 0usize;
    while i < n {
        let c = b[i];
        // Line comment (covers `//`, `///`, `//!`).
        if c == '/' && b.get(i + 1) == Some(&'/') {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            blank(&mut out, &b[start..i]);
            continue;
        }
        // Block comment; Rust block comments nest.
        if c == '/' && b.get(i + 1) == Some(&'*') {
            let start = i;
            let mut depth = 0usize;
            while i < n {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            blank(&mut out, &b[start..i]);
            continue;
        }
        // Raw (and raw-byte) string: r"..." / r#"..."# / br#"..."#.
        if (c == 'r' || (c == 'b' && b.get(i + 1) == Some(&'r')))
            && !prev_is_ident(&b, i)
            && raw_string_end(&b, i).is_some()
        {
            let end = raw_string_end(&b, i).expect("checked above");
            copy_or_blank(&mut out, &b[i..end], strip_strings);
            i = end;
            continue;
        }
        // String (and byte-string) literal.
        if c == '"' || (c == 'b' && b.get(i + 1) == Some(&'"') && !prev_is_ident(&b, i)) {
            let start = i;
            i += if c == 'b' { 2 } else { 1 };
            while i < n {
                if b[i] == '\\' {
                    i += 2;
                } else if b[i] == '"' {
                    i += 1;
                    break;
                } else {
                    i += 1;
                }
            }
            copy_or_blank(&mut out, &b[start..i.min(n)], strip_strings);
            continue;
        }
        // Char/byte literal — but not a lifetime (`'a`), which has no
        // closing quote within two characters.
        if c == '\'' {
            let close = if b.get(i + 1) == Some(&'\\') {
                // Escaped: scan to the closing quote ('\n', '\u{7f}', ...).
                (i + 2..n).find(|&j| b[j] == '\'').map(|j| j + 1)
            } else if b.get(i + 2) == Some(&'\'') {
                Some(i + 3)
            } else {
                None // lifetime or label: leave as code
            };
            if let Some(end) = close {
                copy_or_blank(&mut out, &b[i..end], strip_strings);
                i = end;
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Is `b[i]` preceded by an identifier character? Guards the raw-string
/// and byte-string prefixes so identifiers ending in `r`/`b` (e.g.
/// `attr"..."` never parses, but `var` before `"` in macros might) don't
/// start a literal.
fn prev_is_ident(b: &[char], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == '_')
}

/// If a raw string starts at `b[i]` (optionally after a `b` prefix),
/// return the index one past its closing delimiter.
fn raw_string_end(b: &[char], i: usize) -> Option<usize> {
    let n = b.len();
    let mut j = i + if b[i] == 'b' { 2 } else { 1 };
    let mut hashes = 0usize;
    while j < n && b[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || b[j] != '"' {
        return None; // raw identifier (`r#match`) or bare `r`
    }
    j += 1;
    while j < n {
        if b[j] == '"' && b[j + 1..].iter().take(hashes).filter(|&&c| c == '#').count() == hashes {
            return Some(j + 1 + hashes);
        }
        j += 1;
    }
    Some(n) // unterminated: swallow to EOF, same as rustc would reject
}

/// Entropy sources that would break the simulator's bit-reproducibility.
const ENTROPY_TOKENS: [&str; 5] =
    ["SystemTime", "Instant::now", "thread_rng", "from_entropy", "rand::random"];

/// Flag wall-clock and OS-entropy use in a simulation source file.
pub fn lint_entropy(file: &str, src: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let scrubbed = strip_noncode(src, Strip::CommentsAndStrings);
    for (i, line) in scrubbed.lines().enumerate() {
        for tok in ENTROPY_TOKENS {
            if line.contains(tok) {
                out.push(Violation {
                    file: file.to_string(),
                    line: i + 1,
                    rule: "entropy",
                    msg: format!(
                        "`{tok}` in a simulation crate breaks determinism; \
                         use a seeded StdRng or take time from the simulated clock"
                    ),
                });
            }
        }
    }
    out
}

/// Flag `.unwrap()` in the non-test portion of a library source file.
/// Everything from the first `#[cfg(test)]` to end of file is considered
/// test code (the workspace convention keeps test modules last).
pub fn lint_unwrap(file: &str, src: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let scrubbed = strip_noncode(src, Strip::CommentsAndStrings);
    for (i, line) in scrubbed.lines().enumerate() {
        if line.contains("#[cfg(test)]") {
            break;
        }
        if line.contains(".unwrap()") {
            out.push(Violation {
                file: file.to_string(),
                line: i + 1,
                rule: "unwrap",
                msg: "`.unwrap()` in library code; use `.expect(\"<invariant>\")` \
                      or propagate the error"
                    .to_string(),
            });
        }
    }
    out
}

/// Crate directories whose non-test code the **siphash** and **btree**
/// rules cover.
const SIPHASH_FREE_CRATES: [&str; 6] = ["htm", "core", "coherence", "cache", "mem", "sig"];

/// One family of `std::collections` containers the access-path crates
/// keep out of their non-test code.
struct Banned {
    rule: &'static str,
    names: [&'static str; 2],
    /// The comment that allows a use off the simulated path.
    marker: &'static str,
    msg: &'static str,
}

const BANNED_COLLECTIONS: [Banned; 2] = [
    Banned {
        rule: "siphash",
        names: ["HashMap", "HashSet"],
        marker: "siphash-ok:",
        msg: "`std::collections::{HashMap, HashSet}` on the access path; use \
              `suv_types::{LineMap, LineSet, WordMap, FxHashMap}`, or mark an \
              off-path use with `// siphash-ok: <reason>`",
    },
    Banned {
        rule: "btree",
        names: ["BTreeMap", "BTreeSet"],
        marker: "btree-ok:",
        msg: "`std::collections::{BTreeMap, BTreeSet}` on the access path: a search \
              that deepens with the set; hash (`suv_types::{LineMap, LineSet}`) and \
              sort once where an order is needed, or mark an off-path use with \
              `// btree-ok: <reason>`",
    },
];

/// The non-test portion of a scrubbed source file: everything before the
/// first `#[cfg(test)]` (the workspace convention keeps test modules last).
fn nontest(scrubbed: &str) -> &str {
    scrubbed.find("#[cfg(test)]").map_or(scrubbed, |at| &scrubbed[..at])
}

/// Does 0-based `line` of `src`, or the line above it, carry `marker`?
fn marked(src: &str, line: usize, marker: &str) -> bool {
    let first = line.saturating_sub(1);
    src.lines().skip(first).take(line - first + 1).any(|t| t.contains(marker))
}

/// Flag `std::collections::{HashMap, HashSet, BTreeMap, BTreeSet}` in the
/// non-test portion of a hot-path source file: every `std::collections::`
/// path or `use` whose statement names one of them, unless the line or the
/// one above carries that family's `siphash-ok:` / `btree-ok:` comment.
pub fn lint_std_collections(file: &str, src: &str) -> Vec<Violation> {
    const PATH: &str = "std::collections::";
    let mut out = Vec::new();
    let scrubbed = strip_noncode(src, Strip::CommentsAndStrings);
    let nontest = nontest(&scrubbed);
    for (at, _) in nontest.match_indices(PATH) {
        let rest = &nontest[at + PATH.len()..];
        let stmt = &rest[..rest.find(';').unwrap_or(rest.len())];
        let line = nontest[..at].matches('\n').count();
        for banned in &BANNED_COLLECTIONS {
            let named = stmt
                .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .any(|word| banned.names.contains(&word));
            if named && !marked(src, line, banned.marker) {
                out.push(Violation {
                    file: file.to_string(),
                    line: line + 1,
                    rule: banned.rule,
                    msg: banned.msg.to_string(),
                });
            }
        }
    }
    out
}

/// Flag `Vec<Vec<` in the non-test portion of a hot-path source file,
/// unless the line or the one above carries a `nested-vec-ok:` comment.
pub fn lint_nested_vec(file: &str, src: &str) -> Vec<Violation> {
    let scrubbed = strip_noncode(src, Strip::CommentsAndStrings);
    let nontest = nontest(&scrubbed);
    let lines = nontest.lines().enumerate();
    lines
        .filter(|(i, l)| l.contains("Vec<Vec<") && !marked(src, *i, "nested-vec-ok:"))
        .map(|(i, _)| Violation {
            file: file.to_string(),
            line: i + 1,
            rule: "nested-vec",
            msg: "`Vec<Vec<_>>` on the access path: one heap block per row and a pointer \
                  chase per lookup; keep the rows side by side in one allocation, or mark \
                  a per-core list no access scans with `// nested-vec-ok: <reason>`"
                .to_string(),
        })
        .collect()
}

/// Require `#![forbid(unsafe_code)]` in a crate root.
pub fn lint_forbid_unsafe(file: &str, src: &str) -> Vec<Violation> {
    if src.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]") {
        Vec::new()
    } else {
        vec![Violation {
            file: file.to_string(),
            line: 0,
            rule: "forbid-unsafe",
            msg: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        }]
    }
}

/// Check `VersionManager` implementation completeness in a file that
/// contains at least one `impl VersionManager for`.
pub fn lint_vm_impl(file: &str, src: &str) -> Vec<Violation> {
    // `impl VersionManager for X` or `impl<E: ..> VersionManager for X<E>`.
    let implements =
        |l: &str| l.trim_start().starts_with("impl") && l.contains(" VersionManager for ");
    if !src.lines().any(implements) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for required in ["fn commit(", "fn abort("] {
        if !src.contains(required) {
            out.push(Violation {
                file: file.to_string(),
                line: 0,
                rule: "vm-impl",
                msg: format!(
                    "`impl VersionManager` without `{required}..)`: commit and abort \
                     must be implemented as a pair"
                ),
            });
        }
    }
    if src.contains("fn begin_level(") {
        for required in ["fn commit_level(", "fn abort_level("] {
            if !src.contains(required) {
                out.push(Violation {
                    file: file.to_string(),
                    line: 0,
                    rule: "vm-impl",
                    msg: format!(
                        "`begin_level` overridden without `{required}..)`: partial-abort \
                         support needs the full level trio"
                    ),
                });
            }
        }
    }
    out
}

/// The names of the `fn`s inside the first block of `src` whose header
/// line satisfies `is_header` (a trait or an impl), or `None` when no line
/// does: those declared directly in the block, or with `nested` at any
/// brace depth (an impl may list its methods inside a macro invocation).
/// `src` is scrubbed first, so a `fn` in a doc comment does not count.
fn block_fns(src: &str, is_header: impl Fn(&str) -> bool, nested: bool) -> Option<Vec<String>> {
    let scrubbed = strip_noncode(src, Strip::CommentsAndStrings);
    let mut lines = scrubbed.lines().skip_while(|l| !is_header(l));
    lines.next()?;
    let (mut depth, mut fns) = (1i32, Vec::new());
    for line in lines {
        if let Some(rest) = line.trim_start().strip_prefix("fn ").filter(|_| nested || depth == 1) {
            fns.push(rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect());
        }
        depth += line.matches('{').count() as i32 - line.matches('}').count() as i32;
        if depth <= 0 {
            break;
        }
    }
    Some(fns)
}

/// Check that `impl VersionManager for Vm` in `scheme_src` defines every
/// method the trait in `trait_src` declares.
pub fn lint_vm_enum(file: &str, trait_src: &str, scheme_src: &str) -> Vec<Violation> {
    let whole_file =
        |msg: String| Violation { file: file.to_string(), line: 0, rule: "vm-impl", msg };
    let is_trait = |l: &str| l.contains("pub trait VersionManager");
    let Some(declared) = block_fns(trait_src, is_trait, false) else {
        return vec![whole_file("could not locate `pub trait VersionManager`".to_string())];
    };
    let is_impl = |l: &str| l.contains("impl VersionManager for Vm ");
    let Some(defined) = block_fns(scheme_src, is_impl, true) else {
        return vec![whole_file("could not locate `impl VersionManager for Vm`".to_string())];
    };
    let missing = declared.iter().filter(|m| !defined.contains(m));
    missing
        .map(|m| {
            whole_file(format!(
                "`impl VersionManager for Vm` does not define `{m}`: the trait's default \
                 would replace every scheme's own `{m}`"
            ))
        })
        .collect()
}

/// Flag `dyn VersionManager` in the non-test portion of a source file.
pub fn lint_dyn_vm(file: &str, src: &str) -> Vec<Violation> {
    let scrubbed = strip_noncode(src, Strip::CommentsAndStrings);
    let nontest = nontest(&scrubbed);
    let lines = nontest.lines().enumerate().filter(|(_, l)| l.contains("dyn VersionManager"));
    lines
        .map(|(i, _)| Violation {
            file: file.to_string(),
            line: i + 1,
            rule: "dyn-vm",
            msg: "`dyn VersionManager` outside test code: the scheme set is closed — take \
                  `suv_sim::Vm`, or be generic over `V: VersionManager`"
                .to_string(),
        })
        .collect()
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

/// Check that every `TraceEvent` variant is reconciled through
/// `fn decode` (each variant name must be referenced there as
/// `TraceEvent::<Variant>`) and that the match has no catch-all arm.
pub fn lint_trace_reconciliation(file: &str, src: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    // Extract variant names from the enum declaration.
    let mut variants: Vec<&str> = Vec::new();
    let mut in_enum = false;
    let mut depth = 0i32;
    for line in src.lines() {
        if line.contains("pub enum TraceEvent") {
            in_enum = true;
        }
        if in_enum {
            let t = line.trim();
            if depth == 1 && !is_comment(t) {
                let name: String = t.chars().take_while(char::is_ascii_alphanumeric).collect();
                if !name.is_empty() && name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    variants.push(&t[..name.len()]);
                }
            }
            depth += line.matches('{').count() as i32;
            depth -= line.matches('}').count() as i32;
            if depth == 0 && line.contains('}') {
                in_enum = false;
            }
        }
    }
    if variants.is_empty() {
        out.push(Violation {
            file: file.to_string(),
            line: 0,
            rule: "trace-reconcile",
            msg: "could not locate the `TraceEvent` enum declaration".to_string(),
        });
        return out;
    }
    let Some(start) = src.find("fn decode") else {
        out.push(Violation {
            file: file.to_string(),
            line: 0,
            rule: "trace-reconcile",
            msg: "could not locate `fn decode`".to_string(),
        });
        return out;
    };
    let body_end = src[start..].find("\n    }").map_or(src.len(), |e| start + e);
    let body = &src[start..body_end];
    for v in variants {
        if !body.contains(format!("TraceEvent::{v}").as_str()) {
            out.push(Violation {
                file: file.to_string(),
                line: 0,
                rule: "trace-reconcile",
                msg: format!("variant `{v}` has no arm of its own in `fn decode`"),
            });
        }
    }
    if body.contains("_ =>") {
        out.push(Violation {
            file: file.to_string(),
            line: 0,
            rule: "trace-reconcile",
            msg: "`fn decode` uses a catch-all arm; new variants would be silently \
                  folded together"
                .to_string(),
        });
    }
    out
}

/// Collect the distinct `INV-n` numbers mentioned in a text, paired with
/// the first line each appears on.
fn invariant_mentions(text: &str) -> Vec<(u32, usize)> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let mut rest = line;
        let mut col = 0usize;
        while let Some(at) = rest.find("INV-") {
            let digits: String = rest[at + 4..].chars().take_while(char::is_ascii_digit).collect();
            if let Ok(num) = digits.parse::<u32>() {
                if seen.insert(num) {
                    out.push((num, lineno + 1));
                }
            }
            col += at + 4;
            rest = &line[col..];
        }
    }
    out
}

/// Check that every invariant catalogued in DESIGN.md (`INV-n`) is
/// referenced by at least one check in non-test code. `code_refs` is the
/// set of invariant numbers found in the workspace's sources with
/// comments stripped but strings kept (check calls carry the invariant
/// number in their message), truncated at the first `#[cfg(test)]` per
/// file — a mention that only exists in a doc comment or a test module
/// does not count as coverage.
pub fn lint_invariant_coverage(design: &str, code_refs: &BTreeSet<u32>) -> Vec<Violation> {
    let mut out = Vec::new();
    for (num, line) in invariant_mentions(design) {
        if !code_refs.contains(&num) {
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

/// Extract the invariant numbers a source file's non-test code checks:
/// comments stripped (doc mentions don't count), strings kept (that's
/// where check messages name the invariant), cut at `#[cfg(test)]`.
pub fn invariant_refs(src: &str) -> BTreeSet<u32> {
    let scrubbed = strip_noncode(src, Strip::Comments);
    let nontest = nontest(&scrubbed);
    invariant_mentions(nontest).into_iter().map(|(n, _)| n).collect()
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

    let mut inv_refs: BTreeSet<u32> = BTreeSet::new();
    for crate_dir in &crate_dirs {
        let is_bench = crate_dir.file_name().is_some_and(|n| n == "bench");
        let siphash_free =
            crate_dir.file_name().is_some_and(|n| SIPHASH_FREE_CRATES.iter().any(|c| n == *c));
        let mut files = Vec::new();
        rust_files(crate_dir, &mut files)?;
        for f in &files {
            let src = fs::read_to_string(f)?;
            let name = rel(f);
            if !is_bench {
                violations.extend(lint_entropy(&name, &src));
                if name.contains("/src/") {
                    violations.extend(lint_unwrap(&name, &src));
                }
            }
            if name.contains("/src/") {
                violations.extend(lint_dyn_vm(&name, &src));
            }
            if siphash_free && name.contains("/src/") {
                violations.extend(lint_std_collections(&name, &src));
                violations.extend(lint_nested_vec(&name, &src));
            }
            violations.extend(lint_vm_impl(&name, &src));
            inv_refs.extend(invariant_refs(&src));
        }
        let lib = crate_dir.join("src/lib.rs");
        if lib.exists() {
            violations.extend(lint_forbid_unsafe(&rel(&lib), &fs::read_to_string(&lib)?));
        }
    }

    let xtask_main = root.join("xtask/src/main.rs");
    if xtask_main.exists() {
        violations.extend(lint_forbid_unsafe(&rel(&xtask_main), &fs::read_to_string(&xtask_main)?));
    }

    let event_rs = root.join("crates/trace/src/event.rs");
    violations.extend(lint_trace_reconciliation(&rel(&event_rs), &fs::read_to_string(&event_rs)?));

    let scheme_rs = root.join("crates/sim/src/scheme.rs");
    violations.extend(lint_vm_enum(
        &rel(&scheme_rs),
        &fs::read_to_string(root.join("crates/htm/src/vm.rs"))?,
        &fs::read_to_string(&scheme_rs)?,
    ));

    let mut manifests = Vec::new();
    files_under(root, |p| p.file_name().is_some_and(|n| n == "Cargo.toml"), &mut manifests)?;
    let manifests: Vec<(String, String)> = manifests
        .iter()
        .map(|p| Ok((rel(p), fs::read_to_string(p)?)))
        .collect::<io::Result<_>>()?;
    let config = fs::read_to_string(root.join(".cargo/config.toml"))?;
    violations.extend(lint_build_definition(&config, &manifests));

    let design = root.join("DESIGN.md");
    if design.exists() {
        violations.extend(lint_invariant_coverage(&fs::read_to_string(&design)?, &inv_refs));
    }

    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_flags_wall_clock_but_not_comments() {
        let src = "// Instant::now is banned here\nlet t = Instant::now();\n";
        let v = lint_entropy("x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].rule, "entropy");
        assert!(lint_entropy("x.rs", "let rng = StdRng::seed_from_u64(7);\n").is_empty());
    }

    #[test]
    fn unwrap_allowed_only_in_test_modules() {
        let lib = "fn f() { x.unwrap(); }\n";
        assert_eq!(lint_unwrap("x.rs", lib).len(), 1);
        let tested =
            "fn f() { x.expect(\"ok\"); }\n#[cfg(test)]\nmod t { fn g() { y.unwrap(); } }\n";
        assert!(lint_unwrap("x.rs", tested).is_empty());
        assert!(lint_unwrap("x.rs", "/// x.unwrap() in docs is fine\n").is_empty());
    }

    #[test]
    fn scrub_preserves_line_structure() {
        let src = "a /* b\nc */ d\n\"e\nf\"\n";
        for mode in [Strip::Comments, Strip::CommentsAndStrings] {
            let s = strip_noncode(src, mode);
            assert_eq!(s.lines().count(), src.lines().count(), "{mode:?}");
        }
        // Comments blanked in both modes; the string only in the strict one.
        assert!(strip_noncode(src, Strip::Comments).contains("\"e"));
        assert!(!strip_noncode(src, Strip::Comments).contains("b\nc"));
        assert!(!strip_noncode(src, Strip::CommentsAndStrings).contains('e'));
    }

    #[test]
    fn entropy_not_fooled_by_string_literals() {
        // Regression: the old line scraper flagged the token inside an
        // error-message string.
        let src = "let msg = \"seed with StdRng, never thread_rng\";\n";
        assert!(lint_entropy("x.rs", src).is_empty(), "{:?}", lint_entropy("x.rs", src));
        // ... but the real call right next to a string still trips.
        let bad = "let msg = \"ok\"; let r = thread_rng();\n";
        assert_eq!(lint_entropy("x.rs", bad).len(), 1);
        assert_eq!(lint_entropy("x.rs", bad)[0].line, 1);
    }

    #[test]
    fn entropy_not_fooled_by_block_and_trailing_comments() {
        // Regression: block comments and trailing `//` comments were
        // invisible to the old starts-with("//") test.
        let src = "/* wall clock via Instant::now is banned\n   SystemTime too */\n\
                   let t = sim_clock(); // unlike Instant::now\n";
        assert!(lint_entropy("x.rs", src).is_empty(), "{:?}", lint_entropy("x.rs", src));
    }

    #[test]
    fn entropy_not_fooled_by_raw_strings_and_chars() {
        let src =
            "let re = r\"thread_rng|from_entropy\";\nlet c = 'x';\nlet l: &'static str = s;\n";
        assert!(lint_entropy("x.rs", src).is_empty(), "{:?}", lint_entropy("x.rs", src));
        // Lifetimes must not start a bogus char literal that swallows code.
        let bad = "fn f<'a>(x: &'a u32) { let r = rand::random(); }\n";
        assert_eq!(lint_entropy("x.rs", bad).len(), 1);
    }

    #[test]
    fn unwrap_not_fooled_by_strings_or_trailing_comments() {
        // Regression shapes for the old scraper: quoted `.unwrap()` in a
        // message, and a trailing comment mentioning it.
        let quoted = "let m = \"never call .unwrap() here\";\n";
        assert!(lint_unwrap("x.rs", quoted).is_empty(), "{:?}", lint_unwrap("x.rs", quoted));
        let trailing = "let v = x.expect(\"set\"); // not .unwrap()\n";
        assert!(lint_unwrap("x.rs", trailing).is_empty());
        let real = "let v = x.unwrap(); // bad\n";
        assert_eq!(lint_unwrap("x.rs", real).len(), 1);
    }

    #[test]
    fn siphash_flags_std_hash_containers_outside_tests() {
        let import = "use std::collections::{VecDeque, HashMap};\nfn f() {}\n";
        let v = lint_std_collections("x.rs", import);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].line, v[0].rule), (1, "siphash"));
        let inline = "fn f() {\n    let s = std::collections::HashSet::<u64>::new();\n}\n";
        assert_eq!(lint_std_collections("x.rs", inline)[0].line, 2);
        // A brace group split over lines is one statement.
        let split = "use std::collections::{\n    VecDeque,\n    HashSet,\n};\n";
        assert_eq!(lint_std_collections("x.rs", split).len(), 1);
    }

    #[test]
    fn siphash_accepts_other_collections_tests_and_marked_uses() {
        let fine = "use std::collections::VecDeque;\nuse suv_types::{FxHashMap, LineSet};\n\
                    use std::collections::hash_map::Entry;\n\
                    fn f() { let m: FxHashMap<u64, u64> = FxHashMap::default(); }\n";
        let v = lint_std_collections("x.rs", fine);
        assert!(v.is_empty(), "{v:?}");
        let test_only = "fn f() {}\n#[cfg(test)]\nmod t { use std::collections::HashMap; }\n";
        assert!(lint_std_collections("x.rs", test_only).is_empty());
        let documented = "/// was a std::collections::HashMap once\nfn f() {}\n";
        assert!(lint_std_collections("x.rs", documented).is_empty());
        let marked = "// siphash-ok: ablation-only exact set\nuse std::collections::HashSet;\n";
        assert!(lint_std_collections("x.rs", marked).is_empty());
        let marker_too_far = "// siphash-ok: stale\n\nuse std::collections::HashSet;\n";
        assert_eq!(lint_std_collections("x.rs", marker_too_far).len(), 1);
    }

    #[test]
    fn btree_flags_ordered_std_containers_outside_tests() {
        let import = "use std::collections::BTreeSet;\nfn f() {}\n";
        let v = lint_std_collections("x.rs", import);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].line, v[0].rule), (1, "btree"));
        let inline = "struct S {\n    m: std::collections::BTreeMap<u64, u64>,\n}\n";
        assert_eq!(lint_std_collections("x.rs", inline)[0].line, 2);
        // One statement naming both families is one finding of each rule.
        let both = "use std::collections::{BTreeMap, HashSet};\n";
        let rules: Vec<_> = lint_std_collections("x.rs", both).iter().map(|v| v.rule).collect();
        assert_eq!(rules, ["siphash", "btree"]);
    }

    #[test]
    fn btree_accepts_tests_and_marked_uses_by_its_own_marker_only() {
        let test_only = "fn f() {}\n#[cfg(test)]\nmod t { use std::collections::BTreeSet; }\n";
        assert!(lint_std_collections("x.rs", test_only).is_empty());
        let marked = "// btree-ok: audit-only ordered report\nuse std::collections::BTreeMap;\n";
        assert!(lint_std_collections("x.rs", marked).is_empty());
        let wrong_marker = "// siphash-ok: not this rule\nuse std::collections::BTreeMap;\n";
        assert_eq!(lint_std_collections("x.rs", wrong_marker).len(), 1);
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
        let documented = "/// was a Vec<Vec<Way>> once\nfn f() { g(\"Vec<Vec<\"); }\n";
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
    fn forbid_unsafe_required() {
        assert_eq!(lint_forbid_unsafe("lib.rs", "//! docs\n").len(), 1);
        assert!(lint_forbid_unsafe("lib.rs", "//! docs\n\n#![forbid(unsafe_code)]\n").is_empty());
    }

    #[test]
    fn vm_impl_pairs_enforced() {
        let complete = "impl VersionManager for X {\n fn commit(..) {}\n fn abort(..) {}\n}";
        assert!(lint_vm_impl("x.rs", complete).is_empty());
        let missing_abort = "impl VersionManager for X {\n fn commit(..) {}\n}";
        assert_eq!(lint_vm_impl("x.rs", missing_abort).len(), 1);
        let partial_nesting = "impl VersionManager for X {\n fn commit(..) {}\n fn abort(..) {}\n fn begin_level(..) {}\n fn commit_level(..) {}\n}";
        let v = lint_vm_impl("x.rs", partial_nesting);
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("abort_level"));
        assert!(lint_vm_impl("x.rs", "no impls here").is_empty());
        let generic = "impl<E: VersionManager> VersionManager for X<E> {\n fn commit(..) {}\n}";
        assert_eq!(lint_vm_impl("x.rs", generic).len(), 1, "a generic impl is an impl");
    }

    const VM_TRAIT: &str = "/// fn not_a_method() in a doc comment\n\
        pub trait VersionManager: Send {\n    fn kind(&self) -> K;\n\
        \x20   fn on_eviction(&mut self, _c: usize) {}\n\
        \x20   fn abort_level(&mut self) -> u64 {\n        fn nested() {}\n        0\n    }\n}\n\
        fn outside() {}\n";

    #[test]
    fn vm_enum_must_define_every_trait_method() {
        let full = "impl VersionManager for Vm {\n    forward! {\n        ref {\n            \
            fn kind() -> K;\n        }\n    }\n    fn on_eviction(&mut self, c: usize) {}\n    \
            fn abort_level(&mut self) -> u64 {\n        0\n    }\n}\n";
        let v = lint_vm_enum("s.rs", VM_TRAIT, full);
        assert!(v.is_empty(), "{v:?}");
        // A missing arm: the enum would inherit the no-op default.
        let missing = full.replace("    fn on_eviction(&mut self, c: usize) {}\n", "");
        let v = lint_vm_enum("s.rs", VM_TRAIT, &missing);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "vm-impl");
        assert!(v[0].msg.contains("`on_eviction`"), "{}", v[0].msg);
        // Another type's impl in the same file does not stand in for it.
        let other =
            format!("{missing}impl VersionManager for W {{\n    fn on_eviction() {{}}\n}}\n");
        assert_eq!(lint_vm_enum("s.rs", VM_TRAIT, &other).len(), 1);
        // Neither block found is a finding, not a pass.
        assert_eq!(lint_vm_enum("s.rs", VM_TRAIT, "enum Vm {}\n").len(), 1);
        assert_eq!(lint_vm_enum("s.rs", "trait Other {}\n", full).len(), 1);
    }

    #[test]
    fn dyn_vm_flagged_outside_tests_only() {
        let boxed = "struct M {\n    vm: Box<dyn VersionManager>,\n}\n";
        let v = lint_dyn_vm("m.rs", boxed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].line, v[0].rule), (2, "dyn-vm"));
        assert_eq!(lint_dyn_vm("m.rs", "fn f(vm: &mut dyn VersionManager) {}\n").len(), 1);
        let fine = "/// once a `Box<dyn VersionManager>`\nstruct M<V: VersionManager> { vm: V }\n\
                    #[cfg(test)]\nmod t { fn f(_: Box<dyn VersionManager>) {} }\n";
        assert!(lint_dyn_vm("m.rs", fine).is_empty());
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
    fn trace_reconciliation_counts_references() {
        let good = "pub enum TraceEvent {\n    Foo { x: u64 },\n}\n\
            impl TraceEvent {\n    fn decode() {\n        \
            TraceEvent::Foo { x } => plain(1, x, 0),\n    }\n}\n";
        assert!(
            lint_trace_reconciliation("e.rs", good).is_empty(),
            "{:?}",
            lint_trace_reconciliation("e.rs", good)
        );
        let missing = "pub enum TraceEvent {\n    Foo { x: u64 },\n    Bar,\n}\n\
            impl TraceEvent {\n    fn decode() {\n        \
            TraceEvent::Foo { x } => plain(1, x, 0),\n        _ => plain(2, 0, 0),\n    }\n    \
            fn elsewhere() { TraceEvent::Bar }\n}\n";
        let v = lint_trace_reconciliation("e.rs", missing);
        assert!(v.iter().any(|v| v.msg.contains("`Bar`")), "{v:?}");
        assert!(v.iter().any(|v| v.msg.contains("catch-all")), "{v:?}");
    }

    #[test]
    fn invariant_coverage_spots_unchecked_invariants() {
        let design = "## Invariants\n* **INV-1** lines exclusive\n* **INV-2** no leaks\n";
        let mut refs = BTreeSet::new();
        refs.insert(1);
        let v = lint_invariant_coverage(design, &refs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "invariant-coverage");
        assert_eq!(v[0].line, 3);
        assert!(v[0].msg.contains("INV-2"), "{}", v[0].msg);
        refs.insert(2);
        assert!(lint_invariant_coverage(design, &refs).is_empty());
    }

    #[test]
    fn invariant_refs_ignore_comments_and_tests_but_count_strings() {
        let src = "// INV-1 documented only\n\
                   fn f() { assert!(ok, \"INV-2 violated\"); }\n\
                   #[cfg(test)]\nmod t { fn g() { check(\"INV-3\"); } }\n";
        let refs = invariant_refs(src);
        assert!(!refs.contains(&1), "doc-comment mention must not count");
        assert!(refs.contains(&2), "check-message string must count");
        assert!(!refs.contains(&3), "test-module mention must not count");
    }

    #[test]
    fn workspace_walk_covers_the_oltp_crate() {
        // `lint_workspace` enumerates `crates/*`, so a new crate is linted
        // automatically — pin that the oltp subsystem is on the walk and
        // passes the rules that matter most for it: its traffic generator
        // must draw from the in-crate xorshift (entropy rule), and its
        // crate root must forbid unsafe code.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("workspace root");
        let mut files = Vec::new();
        rust_files(&root.join("crates/oltp"), &mut files).expect("crates/oltp must exist");
        for f in ["traffic.rs", "workload.rs", "lib.rs"] {
            assert!(
                files.iter().any(|p| p.file_name().is_some_and(|n| n == f)),
                "crates/oltp/src/{f} missing from the lint walk"
            );
        }
        let read = |p: &str| fs::read_to_string(root.join(p)).expect("oltp source readable");
        assert!(lint_forbid_unsafe("crates/oltp/src/lib.rs", &read("crates/oltp/src/lib.rs"))
            .is_empty());
        assert!(lint_entropy("crates/oltp/src/traffic.rs", &read("crates/oltp/src/traffic.rs"))
            .is_empty());
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
