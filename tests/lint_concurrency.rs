//! Concurrency lint for the whole source tree (std-only, no regex, no
//! process spawning — it reads the files the same way a reviewer would).
//!
//! Four rules, each a separate test so a violation names its rule:
//!
//! 1. **`unsafe` stays quarantined.** The workspace's safety story is that
//!    every first-party crate is `#![forbid(unsafe_code)]` and the unsafe
//!    code lives in two audited vendored places:
//!    `vendor/minipoll/src/sys.rs` (FFI to epoll, `eventfd` and
//!    `listen(2)`) and `vendor/loomlite/`
//!    (the model checker's own primitives) — plus the repo benchmark's FFI,
//!    `bench/src/sys.rs` (`ppoll`, `malloc_trim`), and one test,
//!    `tests/open_cost.rs`, whose counting `GlobalAlloc` forwards to
//!    `System` (the trait cannot be implemented without `unsafe`). An
//!    `unsafe` token anywhere else fails.
//!
//! 2. **No `std::sync` locks in first-party code.** The rule of the repo
//!    is `stm_core::sync`: its non-poisoning wrapper spares callers the
//!    poisoning boilerplate, and the facade is what lets the model-check
//!    feature swap in loomlite. `std::sync::Mutex` / `Condvar` / `RwLock`
//!    in non-test code of `crates/*/src`, `src/` or `bench/` fails, except
//!    in `crates/stm-core/src/sync.rs`, the wrapper itself
//!    (`std::sync::Arc` and `std::sync::atomic` remain fine).
//!
//! 3. **Non-`Relaxed` atomic orderings must justify themselves.** Every
//!    `SeqCst` / `Acquire` / `Release` / `AcqRel` in the hot-path scope
//!    (`crates/*/src`, `src/`, `bench/` and `vendor/metrics/src`, whose
//!    counters carry the STM's snapshot identities) needs a
//!    `// ordering:` comment on the same line or within the three lines
//!    above, stating what pairs with what — several of them point at the
//!    bounded model
//!    that proves the pairing load-bearing. `models.rs` files are exempt
//!    (they parameterize orderings on purpose), and scanning stops at
//!    `#[cfg(test)]`.
//!
//! 4. **The runtime's atomics come from its `sync` facade.** A
//!    `std::sync::atomic` type in non-test code of `crates/stm-core/src` or
//!    `crates/stm-log/src` fails outside `sync.rs` (the facade) and
//!    `models.rs`: one such atomic would escape `--features model-check`.

use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Recursively collects `.rs` files under `dir` (which may not exist).
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// One source line split into its code part and its comment part.
struct SplitLine {
    code: String,
    comment: String,
}

/// Splits a file into per-line (code, comment) halves, tracking block
/// comments, string/char literals and raw strings across lines, so the
/// rules below never match inside a comment or a string — and so the
/// `// ordering:` markers (which *are* comments) can be found reliably.
fn split_lines(source: &str) -> Vec<SplitLine> {
    let mut lines = Vec::new();
    // Carries across lines: >0 = inside that many nested block comments;
    // a raw-string terminator like `"###` when inside a raw string; or a
    // plain `"` when inside a normal (multi-line) string literal.
    let mut block_depth = 0usize;
    let mut in_string: Option<String> = None;

    for raw in source.lines() {
        let mut code = String::new();
        let mut comment = String::new();
        let bytes: Vec<char> = raw.chars().collect();
        let mut i = 0;
        while i < bytes.len() {
            if block_depth > 0 {
                if bytes[i] == '/' && i + 1 < bytes.len() && bytes[i + 1] == '*' {
                    block_depth += 1;
                    comment.push_str("/*");
                    i += 2;
                } else if bytes[i] == '*' && i + 1 < bytes.len() && bytes[i + 1] == '/' {
                    block_depth -= 1;
                    comment.push_str("*/");
                    i += 2;
                } else {
                    comment.push(bytes[i]);
                    i += 1;
                }
                continue;
            }
            if let Some(term) = &in_string {
                // Inside a (possibly raw) string literal: eat until its
                // terminator; the contents count as neither code nor comment.
                let rest: String = bytes[i..].iter().collect();
                if term == "\"" && bytes[i] == '\\' {
                    i += 2; // skip the escaped character
                } else if rest.starts_with(term.as_str()) {
                    i += term.chars().count();
                    code.push('"'); // keep a placeholder so tokens split
                    in_string = None;
                } else {
                    i += 1;
                }
                continue;
            }
            match bytes[i] {
                '/' if i + 1 < bytes.len() && bytes[i + 1] == '/' => {
                    // Line comment: the rest of the line is comment.
                    comment.push_str(&bytes[i..].iter().collect::<String>());
                    i = bytes.len();
                }
                '/' if i + 1 < bytes.len() && bytes[i + 1] == '*' => {
                    block_depth += 1;
                    comment.push_str("/*");
                    i += 2;
                }
                '"' => {
                    code.push('"');
                    in_string = Some("\"".to_string());
                    i += 1;
                }
                'r' if i + 1 < bytes.len() && (bytes[i + 1] == '"' || bytes[i + 1] == '#') => {
                    // Possible raw string r"..." / r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while j < bytes.len() && bytes[j] == '#' {
                        hashes += 1;
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j] == '"' {
                        code.push('"');
                        in_string = Some(format!("\"{}", "#".repeat(hashes)));
                        i = j + 1;
                    } else {
                        code.push('r');
                        i += 1;
                    }
                }
                '\'' => {
                    // Char literal or lifetime. A char literal closes within
                    // a few characters; a lifetime has no closing quote.
                    if i + 2 < bytes.len() && bytes[i + 1] == '\\' {
                        let mut j = i + 2;
                        while j < bytes.len() && bytes[j] != '\'' {
                            j += 1;
                        }
                        code.push_str("' '");
                        i = j + 1;
                    } else if i + 2 < bytes.len() && bytes[i + 2] == '\'' {
                        code.push_str("' '");
                        i += 3;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                }
                c => {
                    code.push(c);
                    i += 1;
                }
            }
        }
        lines.push(SplitLine { code, comment });
    }
    lines
}

/// Whether `code` contains `needle` as a standalone word (no identifier
/// character on either side).
fn has_token(code: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= code.len()
            || !code[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Rule 1: `unsafe` appears only in the audited allowlist.
#[test]
fn unsafe_stays_in_the_audited_vendor_allowlist() {
    let root = repo_root();
    let allow = [
        "vendor/minipoll/src/sys.rs",
        "bench/src/sys.rs",
        "vendor/loomlite/",
        "tests/open_cost.rs",
    ];
    let mut files = Vec::new();
    for dir in [
        "crates", "src", "tests", "vendor", "benches", "examples", "bench",
    ] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut violations = Vec::new();
    for path in files {
        let name = rel(&root, &path);
        if allow.iter().any(|a| name.starts_with(a)) {
            continue;
        }
        let source = fs::read_to_string(&path).unwrap();
        for (lineno, line) in split_lines(&source).iter().enumerate() {
            // `unsafe_code` (the forbid attribute) is a different token.
            if has_token(&line.code, "unsafe") {
                violations.push(format!("{name}:{}: {}", lineno + 1, line.code.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "`unsafe` outside the audited allowlist ({allow:?}):\n{}",
        violations.join("\n")
    );
}

/// Rule 2: first-party non-test code takes locks through `stm_core::sync`,
/// never `std::sync`; only the wrapper in that module names `std`'s.
#[test]
fn no_std_sync_locks_in_first_party_code() {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "bench"] {
        rust_files(&root.join(dir), &mut files);
    }
    let banned = ["Mutex", "Condvar", "RwLock"];
    let wrapper = "crates/stm-core/src/sync.rs";
    let mut violations = Vec::new();
    for path in files {
        let name = rel(&root, &path);
        if name == wrapper {
            continue;
        }
        let source = fs::read_to_string(&path).unwrap();
        for (lineno, line) in split_lines(&source).iter().enumerate() {
            if line.code.contains("#[cfg(test)]") {
                break; // test modules may use whatever they like
            }
            if line.code.contains("std::sync::") && banned.iter().any(|b| has_token(&line.code, b))
            {
                violations.push(format!("{name}:{}: {}", lineno + 1, line.code.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "std::sync locks in first-party code (use stm_core::sync):\n{}",
        violations.join("\n")
    );
}

/// Whether the strong-ordering use at `lineno` is covered by an
/// `// ordering:` comment: on the same line, or in the comment block /
/// multi-line statement directly above. One comment block justifies a
/// contiguous run of strong-ordering statements (the handshakes come in
/// pairs — publish + re-check — and share one explanation), but the search
/// stops at the first unrelated completed statement or blank line.
fn ordering_justified(lines: &[SplitLine], lineno: usize, strong: &[&str]) -> bool {
    if lines[lineno].comment.contains("ordering:") {
        return true;
    }
    let mut n = lineno;
    while n > 0 {
        n -= 1;
        let line = &lines[n];
        if line.comment.contains("ordering:") {
            return true;
        }
        let code = line.code.trim();
        if code.is_empty() {
            if line.comment.is_empty() {
                return false; // blank line: the run (if any) ended above it
            }
            continue; // comment-only line: keep scanning the block
        }
        let ends_statement = code.ends_with(';') || code.ends_with('{') || code.ends_with('}');
        let also_strong = strong
            .iter()
            .any(|o| line.code.contains(&format!("Ordering::{o}")));
        if ends_statement && !also_strong {
            return false; // crossed into an unrelated previous statement
        }
    }
    false
}

/// Rule 3: every non-`Relaxed` ordering in the hot-path scope carries a
/// `// ordering:` justification on the same line or in the comment block
/// directly above its statement (or run of paired statements).
#[test]
fn non_relaxed_orderings_are_justified() {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "bench", "vendor/metrics/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let strong = ["SeqCst", "Acquire", "Release", "AcqRel"];
    let mut violations = Vec::new();
    for path in files {
        let name = rel(&root, &path);
        // Model modules parameterize orderings on purpose — weakening them
        // is their whole job.
        if path.file_name().is_some_and(|n| n == "models.rs") {
            continue;
        }
        let source = fs::read_to_string(&path).unwrap();
        let lines = split_lines(&source);
        for (lineno, line) in lines.iter().enumerate() {
            if line.code.contains("#[cfg(test)]") {
                break; // tests may hammer atomics without the ceremony
            }
            if line.code.trim_start().starts_with("use ") {
                continue; // imports of `Ordering::*` are not uses
            }
            let uses_strong = strong
                .iter()
                .any(|o| line.code.contains(&format!("Ordering::{o}")));
            if !uses_strong {
                continue;
            }
            if !ordering_justified(&lines, lineno, &strong) {
                violations.push(format!("{name}:{}: {}", lineno + 1, line.code.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "non-Relaxed atomic ordering without a `// ordering:` justification \
         (same line or within 3 lines above):\n{}",
        violations.join("\n")
    );
}

/// Whether `code` names a type from `std::sync::atomic` (`AtomicU64`, …),
/// as a path or in a `use` list; `Ordering` alone does not count.
fn names_std_atomic_type(code: &str) -> bool {
    code.split("std::sync::atomic::").skip(1).any(|rest| {
        let items = match rest.strip_prefix('{') {
            Some(list) => list.split('}').next().unwrap_or(list),
            None => rest
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next()
                .unwrap_or(""),
        };
        items
            .split(',')
            .any(|item| item.trim().starts_with("Atomic"))
    })
}

/// Rule 4: the runtime and the log take every atomic from the `sync`
/// facade, so `--features model-check` models all of them.
#[test]
fn runtime_atomics_come_from_the_sync_facade() {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates/stm-core/src", "crates/stm-log/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut violations = Vec::new();
    for path in files {
        // The facade re-exports std's types; a model's bookkeeping across
        // its runs (`models.rs`) must stay outside the model.
        if path
            .file_name()
            .is_some_and(|n| n == "sync.rs" || n == "models.rs")
        {
            continue;
        }
        let name = rel(&root, &path);
        let source = fs::read_to_string(&path).unwrap();
        for (lineno, line) in split_lines(&source).iter().enumerate() {
            if line.code.contains("#[cfg(test)]") {
                break;
            }
            if names_std_atomic_type(&line.code) {
                violations.push(format!("{name}:{}: {}", lineno + 1, line.code.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "std::sync::atomic types outside the sync facade (use stm_core::sync::atomic):\n{}",
        violations.join("\n")
    );
}

/// Negative self-tests: the machinery must actually *catch* violations,
/// not just pass on today's clean tree.
#[test]
fn the_lint_machinery_catches_violations() {
    // Token matching: attribute `unsafe_code` is not the keyword.
    assert!(has_token("unsafe fn foo()", "unsafe"));
    assert!(has_token("let x = unsafe { *p };", "unsafe"));
    assert!(!has_token("#![forbid(unsafe_code)]", "unsafe"));
    assert!(!has_token("my_unsafe_helper()", "unsafe"));

    // Comments and strings never trip the rules.
    let split = split_lines("let s = \"unsafe\"; // unsafe in prose\n/* unsafe */ let x = 1;");
    assert!(!has_token(&split[0].code, "unsafe"));
    assert!(split[0].comment.contains("unsafe"));
    assert!(!has_token(&split[1].code, "unsafe"));

    // An unjustified strong ordering is flagged...
    let strong = ["SeqCst", "Acquire", "Release", "AcqRel"];
    let bad = split_lines("fn f() {\n    x.store(1, Ordering::SeqCst);\n}");
    assert!(!ordering_justified(&bad, 1, &strong));

    // ...a justified one is not, including one block covering a paired run,
    // and the justification does not leak across a blank line.
    let good = split_lines(
        "fn f() {\n    // ordering: pairs with the reader's re-check.\n    x.store(1, Ordering::SeqCst);\n    y.load(Ordering::SeqCst);\n\n    z.store(2, Ordering::Release);\n}",
    );
    assert!(ordering_justified(&good, 2, &strong));
    assert!(ordering_justified(&good, 3, &strong));
    assert!(!ordering_justified(&good, 5, &strong));

    // Raw strings and char literals don't desynchronize the splitter.
    let tricky = split_lines("let r = r#\"unsafe \" quote\"#;\nlet c = '\"';\nunsafe {}");
    assert!(!has_token(&tricky[0].code, "unsafe"));
    assert!(!has_token(&tricky[1].code, "unsafe"));
    assert!(has_token(&tricky[2].code, "unsafe"));

    // A std atomic type is caught in a `use` list, alone or by path;
    // `Ordering` and the facade's own path are not.
    assert!(names_std_atomic_type(
        "use std::sync::atomic::{AtomicU8, Ordering};"
    ));
    assert!(names_std_atomic_type(
        "use std::sync::atomic::AtomicBool as Seen;"
    ));
    assert!(names_std_atomic_type(
        "let n = std::sync::atomic::AtomicU64::new(0);"
    ));
    assert!(!names_std_atomic_type("use std::sync::atomic::Ordering;"));
    assert!(!names_std_atomic_type(
        "x.store(true, std::sync::atomic::Ordering::Relaxed);"
    ));
    assert!(!names_std_atomic_type(
        "use crate::sync::atomic::{AtomicU8, Ordering};"
    ));
}
