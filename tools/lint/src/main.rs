//! `ratel-lint`: the workspace source lint gate.
//!
//! Scans first-party sources (`crates/*/src`, root `src/`, `tools/*/src`)
//! for patterns that the concurrency audit (ISSUE 10) banned from library
//! code:
//!
//! * **`no-unwrap`** — `.unwrap()` / `.expect(...)` in non-test library
//!   code. Panics in the executor/storage/obs sync layer poison locks and
//!   turn recoverable I/O faults into aborts; library code must surface
//!   typed `RatelError` / `StorageError` values instead. Test modules
//!   (`#[cfg(test)]`), `tests/` and `benches/` directories are exempt.
//! * **`no-sleep-under-lock`** — `thread::sleep` while a lock guard from
//!   a `.lock()` binding is live in the enclosing scope. Sleeping under a
//!   lock serializes every other party on the sleeper's clock; back off
//!   *after* dropping the guard (see `ratel_check::lockorder`, which
//!   enforces the same rule at runtime in debug builds).
//! * **`no-static-mut`** — `static mut` items; use interior mutability
//!   through the checked primitives in `ratel_check::sync`.
//! * **`no-wall-clock-in-sim`** — bare `Instant::now()` inside
//!   `crates/sim`: the simulator must read its virtual clock so runs stay
//!   deterministic and replayable.
//! * **`doc-refs`** — a backticked `.rs` path in README.md or DESIGN.md
//!   that names no workspace file, whole or by the tail of its path
//!   (`engine/plan.rs`), a backticked `Type::name` whose `Type` the
//!   workspace declares but whose `name` no `fn`, field, variant or
//!   constant of it does, or a backticked bare `fn_name` (or
//!   `fn_name(..)`) the workspace declares no `fn` — nor field or
//!   constant — by. ROADMAP.md is exempt: it names deleted files and
//!   methods as history.
//! * **`long-fn`** — a non-test `fn` longer than 150 lines, from its
//!   `fn` line to its closing brace. A function that long is several
//!   steps, each with its own state; split it into the steps so a new
//!   branch lands in one of them, not in the whole.
//! * **`thread-spawn`** — a non-test `thread::scope`, `thread::spawn`,
//!   `thread::Builder` / `Builder::spawn` or `spawn_scoped` outside
//!   `crates/tensor/src/parallel.rs`. The kernels fan out through that
//!   file's `par_bands` alone, so its counters see every fan-out and one
//!   process-wide pool can replace one body; any other spawner is
//!   allowlisted with the reason it is not a kernel fan-out.
//!
//! Findings are suppressed by `ratel-lint.allow` at the workspace root.
//! Each non-comment line is `<rule> <path>` and waives that rule for that
//! file; an entry that waives nothing is stale and is itself a finding,
//! at its line of the allowlist. Exit status is non-zero iff any
//! unsuppressed finding remains, so CI can use the binary as a hard gate.
//!
//! Vendored dependency shims under `vendor/` are third-party API surface
//! and are not scanned.

use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A lint rule identifier, as used in findings and the allowlist.
// Variants mirror the kebab-case rule names (`no-unwrap`, …) verbatim.
#[allow(clippy::enum_variant_names)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    NoUnwrap,
    NoSleepUnderLock,
    NoStaticMut,
    NoWallClockInSim,
    DocRefs,
    LongFn,
    ThreadSpawn,
}

impl Rule {
    fn name(self) -> &'static str {
        match self {
            Rule::NoUnwrap => "no-unwrap",
            Rule::NoSleepUnderLock => "no-sleep-under-lock",
            Rule::NoStaticMut => "no-static-mut",
            Rule::NoWallClockInSim => "no-wall-clock-in-sim",
            Rule::DocRefs => "doc-refs",
            Rule::LongFn => "long-fn",
            Rule::ThreadSpawn => "thread-spawn",
        }
    }

    fn parse(s: &str) -> Option<Rule> {
        match s {
            "no-unwrap" => Some(Rule::NoUnwrap),
            "no-sleep-under-lock" => Some(Rule::NoSleepUnderLock),
            "no-static-mut" => Some(Rule::NoStaticMut),
            "no-wall-clock-in-sim" => Some(Rule::NoWallClockInSim),
            "doc-refs" => Some(Rule::DocRefs),
            "long-fn" => Some(Rule::LongFn),
            "thread-spawn" => Some(Rule::ThreadSpawn),
            _ => None,
        }
    }
}

/// One lint hit: rule, file, 1-based line, and the offending source line.
struct Finding {
    rule: Rule,
    path: PathBuf,
    line: usize,
    text: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule.name(),
            self.text.trim()
        )
    }
}

/// Strips comments and string-literal contents from a source file so the
/// pattern scans below do not fire on prose. Line structure is preserved
/// (the output has the same number of lines as the input); string bodies
/// are blanked rather than removed so column-free heuristics still see
/// the surrounding tokens.
fn sanitize(src: &str) -> Vec<String> {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
    }
    let mut st = St::Code;
    let mut out = Vec::new();
    let mut cur = String::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied().unwrap_or('\0');
        if c == '\n' {
            if st == St::LineComment {
                st = St::Code;
            }
            out.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match st {
            St::Code => match c {
                '/' if next == '/' => {
                    st = St::LineComment;
                    i += 2;
                }
                '/' if next == '*' => {
                    st = St::BlockComment(1);
                    i += 2;
                }
                '"' => {
                    cur.push('"');
                    st = St::Str;
                    i += 1;
                }
                '\'' => {
                    // Char literal vs lifetime. A literal closes with a
                    // `'` within a few chars (`'x'`, `'\n'`, `'\u{..}'`);
                    // a lifetime never does. Blank literal bodies so
                    // quotes and braces inside them don't confuse the
                    // string/brace tracking.
                    let mut j = i + 1;
                    if bytes.get(j) == Some(&'\\') {
                        j += 2; // skip the escape introducer + escaped char
                        while j < bytes.len() && bytes[j] != '\'' && bytes[j] != '\n' {
                            j += 1;
                        }
                    } else if bytes.get(j).is_some_and(|c| *c != '\'') {
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'\'') && j > i + 1 {
                        cur.push_str("' '");
                        i = j + 1;
                    } else {
                        cur.push('\'');
                        i += 1;
                    }
                }
                'r' if next == '"' || next == '#' => {
                    // Possible raw string: r"..." or r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        cur.push('"');
                        st = St::RawStr(hashes);
                        i = j + 1;
                    } else {
                        cur.push(c);
                        i += 1;
                    }
                }
                _ => {
                    cur.push(c);
                    i += 1;
                }
            },
            St::LineComment => {
                i += 1;
            }
            St::BlockComment(depth) => {
                if c == '*' && next == '/' {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == '*' {
                    st = St::BlockComment(depth + 1);
                    i += 2;
                } else {
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    // Skip only the backslash when it escapes a newline
                    // (string line-continuation), so the top-of-loop
                    // newline handler still keeps line counts aligned.
                    i += if next == '\n' { 1 } else { 2 };
                } else if c == '"' {
                    cur.push('"');
                    st = St::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if bytes.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        cur.push('"');
                        st = St::Code;
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
            }
        }
    }
    if !cur.is_empty() || st == St::LineComment {
        out.push(cur);
    }
    out
}

/// Marks each (sanitized) line that lies inside a `#[cfg(test)]` item —
/// the module (or function) the attribute decorates, tracked by brace
/// depth. Lines inside are exempt from `no-unwrap`.
fn test_mask(lines: &[String]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut depth: i64 = 0;
    // When inside a test item: the depth *outside* it; exit once depth
    // returns to this value after the opening brace was consumed.
    let mut in_test: Option<i64> = None;
    let mut pending_attr = false;
    let mut entered = false;
    for (idx, line) in lines.iter().enumerate() {
        let trimmed = line.trim();
        if let Some(outer) = in_test {
            mask[idx] = true;
            for c in line.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => {
                        depth -= 1;
                        if entered && depth == outer {
                            in_test = None;
                        }
                    }
                    _ => {}
                }
            }
            continue;
        }
        if trimmed.contains("#[cfg(test)]") || trimmed.contains("#[test]") {
            pending_attr = true;
        } else if pending_attr
            && !trimmed.is_empty()
            && !trimmed.starts_with("#[")
            && !trimmed.starts_with("#!")
        {
            // The item the attribute decorates starts here.
            in_test = Some(depth);
            entered = false;
            pending_attr = false;
            mask[idx] = true;
            for c in line.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => {
                        depth -= 1;
                        if entered && depth == in_test.unwrap_or(0) {
                            in_test = None;
                        }
                    }
                    _ => {}
                }
            }
            continue;
        }
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
    }
    mask
}

/// The most lines a non-test `fn` may span, `fn` line to closing brace.
const MAX_FN_LINES: usize = 150;

/// Where a (sanitized) line declares a `fn`: the byte offset of a `fn`
/// keyword that a name follows — not `fn(` pointer types, not `fn_x`.
fn fn_keyword(line: &str) -> Option<usize> {
    line.match_indices("fn ").map(|(i, _)| i).find(|&i| {
        let before = line[..i].chars().next_back();
        let name = line[i + 3..].trim_start().chars().next();
        !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
            && name.is_some_and(|c| c.is_alphabetic() || c == '_')
    })
}

/// The non-test `fn`s of a sanitized file longer than [`MAX_FN_LINES`],
/// as (0-based first line, length in lines). Each signature is followed
/// to its body's `{` (a `;` outside parentheses and brackets first means
/// a declaration without a body) and the body by brace depth to its `}`.
fn long_fns(lines: &[String], in_test: &[bool]) -> Vec<(usize, usize)> {
    let mut long = Vec::new();
    for (start, line) in lines.iter().enumerate().filter(|&(i, _)| !in_test[i]) {
        let Some(at) = fn_keyword(line) else {
            continue;
        };
        let (mut nest, mut depth) = (0i64, 0i64);
        let tail =
            std::iter::once(&line[at..]).chain(lines[start + 1..].iter().map(String::as_str));
        'body: for (offset, text) in tail.enumerate() {
            for c in text.chars() {
                match c {
                    '(' | '[' => nest += 1,
                    ')' | ']' => nest -= 1,
                    ';' if depth == 0 && nest == 0 => break 'body,
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            if offset + 1 > MAX_FN_LINES {
                                long.push((start, offset + 1));
                            }
                            break 'body;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    long
}

/// The one file that may start threads for the kernels (`par_bands`).
const FAN_OUT_FILE: &str = "crates/tensor/src/parallel.rs";

/// What starts an OS thread: a scope, a bare spawn, a `thread::Builder`
/// (whose `spawn`/`spawn_scoped` sits on a later line of its chain).
const SPAWNS: &[&str] = &[
    "thread::scope(",
    "thread::spawn(",
    "thread::Builder",
    "Builder::spawn",
    "spawn_scoped(",
];

/// Scans one file and appends findings.
fn scan_file(path: &Path, rel: &Path, findings: &mut Vec<Finding>) {
    let Ok(src) = fs::read_to_string(path) else {
        return;
    };
    let lines = sanitize(&src);
    let in_test = test_mask(&lines);
    let in_sim = rel.starts_with("crates/sim");
    let is_fan_out = rel == Path::new(FAN_OUT_FILE);

    // Live lock-guard scopes: (binding name, brace depth at binding).
    let mut guards: Vec<(String, i64)> = Vec::new();
    let mut depth: i64 = 0;

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let orig = src.lines().nth(idx).unwrap_or("").to_string();
        let mut report = |rule: Rule| {
            findings.push(Finding {
                rule,
                path: rel.to_path_buf(),
                line: lineno,
                text: orig.clone(),
            });
        };

        if line.contains("static mut") {
            report(Rule::NoStaticMut);
        }
        if in_sim && line.contains("Instant::now()") {
            report(Rule::NoWallClockInSim);
        }
        // `.expect("` (string-literal message) rather than `.expect(`:
        // panicking expects take a message, so this skips unrelated
        // `Result`-returning parser methods that happen to share the
        // name (`self.expect(b'{')?`). Sanitized strings keep their
        // quotes, so the literal is still visible here.
        if !in_test[idx] && (line.contains(".unwrap()") || line.contains(".expect(\"")) {
            report(Rule::NoUnwrap);
        }
        if !in_test[idx] && !is_fan_out && SPAWNS.iter().any(|p| line.contains(p)) {
            report(Rule::ThreadSpawn);
        }

        // Guard-scope tracking for no-sleep-under-lock. A binding like
        // `let g = x.lock();` (or `.lock().unwrap()`) opens a guard scope
        // that closes when the enclosing block does or when `drop(g)` /
        // `mem::drop(g)` runs. `let _ = x.lock()` drops immediately.
        if !guards.is_empty() && line.contains("sleep(") {
            report(Rule::NoSleepUnderLock);
        }
        if line.contains(".lock(") {
            if let Some(name) = guard_binding(line) {
                guards.push((name, depth));
            }
        }
        for (j, _) in line.match_indices("drop(") {
            let inner: String = line[j + 5..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            guards.retain(|(n, _)| *n != inner);
        }
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    guards.retain(|(_, d)| *d <= depth);
                }
                _ => {}
            }
        }
    }
    for (start, len) in long_fns(&lines, &in_test) {
        let orig = src.lines().nth(start).unwrap_or("").trim();
        findings.push(Finding {
            rule: Rule::LongFn,
            path: rel.to_path_buf(),
            line: start + 1,
            text: format!("{len} lines (at most {MAX_FN_LINES}): {orig}"),
        });
    }
}

/// Extracts the binding name from `let [mut] NAME = x.lock();` — but only
/// when the binding actually *holds* the guard. `let v = *x.lock();`
/// deref-copies and `x.lock().push(..)` / `.lock().clone()` hold only for
/// the statement, so neither opens a scope (a deliberate
/// under-approximation; `expect`/`unwrap`/`?` adapters are seen through).
/// Expects a [`sanitize`]d line, so string literals are already blanked.
fn guard_binding(line: &str) -> Option<String> {
    let t = line.trim_start();
    let rest = t.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || name == "_" {
        return None;
    }
    let rhs = rest.split_once('=')?.1.trim_start();
    if rhs.starts_with('*') {
        return None; // deref-copy: the guard is a temporary
    }
    // After `.lock()`, only unwrap/expect/`?` may follow before the `;`;
    // any further projection means the guard itself is not what's bound.
    let tail = &line[line.rfind(".lock(")? + ".lock(".len()..];
    let mut tail = tail.strip_prefix(')').unwrap_or(tail).trim_end();
    tail = tail.strip_suffix(';').unwrap_or(tail);
    loop {
        let t = tail.trim_start();
        tail = if let Some(r) = t.strip_prefix(".unwrap()") {
            r
        } else if let Some(r) = t.strip_prefix(".expect(\"\")") {
            r
        } else if let Some(r) = t.strip_prefix('?') {
            r
        } else {
            break;
        };
    }
    if !tail.trim().is_empty() {
        return None;
    }
    Some(name)
}

/// Recursively collects `.rs` files under `dir`, skipping `tests/`,
/// `benches/`, `examples/`, and `target/` directories.
fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if matches!(name, "tests" | "benches" | "examples" | "target") {
                continue;
            }
            collect(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// Workspace roots to scan, relative to the workspace root.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tools"];

/// The docs whose backticked `.rs` paths must resolve.
const DOC_FILES: &[&str] = &["README.md", "DESIGN.md"];

/// Every `.rs` file of the workspace (tests and examples included), as
/// `/`-separated paths relative to `root`; build output, vendored crates
/// and hidden directories are not the workspace's.
fn workspace_sources(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !matches!(name, "target" | "vendor") && !name.starts_with('.') {
                workspace_sources(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_alphanumeric() || c == '_')
}

/// The names the workspace's `.rs` files declare, outside comments and
/// strings. `types` are what follows `struct`, `enum`, `trait` or
/// `type`; `members` what follows `fn`, `const` or `static`, plus every
/// name that opens a line and that `:`, `,`, `(`, `{`, `=` or the line's
/// end follows — fields and variants as rustfmt lays them out. That
/// over-approximates, so a stale reference may pass but never a live
/// one fail.
#[derive(Default)]
struct Declared {
    types: HashSet<String>,
    members: HashSet<String>,
}

impl Declared {
    fn scan(root: &Path, sources: &[String]) -> Declared {
        let mut declared = Declared::default();
        for line in (sources.iter())
            .filter_map(|rel| fs::read_to_string(root.join(rel)).ok())
            .flat_map(|src| sanitize(&src))
        {
            let words: Vec<&str> = line
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter(|w| !w.is_empty())
                .collect();
            for pair in words.windows(2) {
                let set = match pair[0] {
                    "struct" | "enum" | "trait" | "type" => &mut declared.types,
                    "fn" | "const" | "static" => &mut declared.members,
                    _ => continue,
                };
                set.insert(pair[1].to_string());
            }
            let mut rest = line.trim_start();
            for vis in ["pub(crate) ", "pub(super) ", "pub "] {
                rest = rest.strip_prefix(vis).unwrap_or(rest);
            }
            let end = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            let after = rest[end..].trim_start();
            let opens = after.is_empty()
                || after.starts_with([',', '(', '{', '='])
                || (after.starts_with(':') && !after.starts_with("::"));
            if end > 0 && opens {
                declared.members.insert(rest[..end].to_string());
            }
        }
        declared
    }
}

/// The `(Type, name)` pairs a code span refers to — `Type::name`,
/// `Type::name(args)`, `path::Type::name` or `Type::{a, b}` — where
/// `Type` is CamelCase.
fn member_refs(span: &str) -> Vec<(&str, &str)> {
    let path = span.split('(').next().unwrap_or(span);
    let (owner, names): (&str, Vec<&str>) = match path.split_once("::{") {
        Some((owner, group)) => match group.strip_suffix('}') {
            Some(group) => (owner, group.split(',').map(str::trim).collect()),
            None => return Vec::new(),
        },
        None => match path.rsplit_once("::") {
            Some((owner, name)) => (owner, vec![name]),
            None => return Vec::new(),
        },
    };
    let ty = owner.rsplit("::").next().unwrap_or(owner);
    if !ty.starts_with(|c: char| c.is_ascii_uppercase()) || !owner.split("::").all(is_ident) {
        return Vec::new();
    }
    (names.into_iter().filter(|n| is_ident(n)))
        .map(|name| (ty, name))
        .collect()
}

/// The function a code span names, when it looks like one: a snake_case
/// identifier with an underscore and no digit (bench entries carry
/// sizes), bare or called — `fetch_params`, `fetch_params(layer)`.
fn fn_ref(span: &str) -> Option<&str> {
    let name = match span.split_once('(') {
        Some((name, args)) if args.ends_with(')') => name,
        Some(_) => return None,
        None => span,
    };
    let snake = name.chars().all(|c| c.is_ascii_lowercase() || c == '_');
    (snake && name.trim_matches('_').contains('_')).then_some(name)
}

/// `doc-refs` over one markdown file: every code span that is a path
/// ending in `.rs` must name one of `sources`, whole or by its tail,
/// every `Type::name` of a declared type a declared member, and every
/// bare function name a declared member.
fn scan_doc_refs(
    doc: &Path,
    rel: &Path,
    sources: &[String],
    declared: &Declared,
    findings: &mut Vec<Finding>,
) {
    let Ok(text) = fs::read_to_string(doc) else {
        return;
    };
    for (idx, line) in text.lines().enumerate() {
        let mut report = |text: String| {
            findings.push(Finding {
                rule: Rule::DocRefs,
                path: rel.to_path_buf(),
                line: idx + 1,
                text,
            })
        };
        // Odd `split` pieces are the inside of `code spans`.
        for span in line.split('`').skip(1).step_by(2) {
            let stem = span.rsplit('/').next().and_then(|f| f.strip_suffix(".rs"));
            let is_path = stem.is_some_and(|s| !s.is_empty()) && !span.contains([' ', '*']);
            let resolves = |f: &String| f == span || f.ends_with(&format!("/{span}"));
            if is_path && !sources.iter().any(resolves) {
                report(format!("`{span}` names no workspace file"));
            }
            for (ty, name) in member_refs(span) {
                if declared.types.contains(ty) && !declared.members.contains(name) {
                    report(format!(
                        "`{ty}::{name}` names nothing the workspace declares"
                    ));
                }
            }
            if let Some(name) = fn_ref(span).filter(|n| !declared.members.contains(*n)) {
                report(format!("`{name}` names no `fn` the workspace declares"));
            }
        }
    }
}

/// The findings the allowlist leaves standing, and how many it waived.
/// Each `(rule, path, line)` entry waives its rule's findings in that
/// file; an entry that waives none is stale and stands as a finding of
/// its own at its `line` of `allow_path`, so the list cannot outlive
/// the code it excused.
fn waive(
    findings: Vec<Finding>,
    allow: &[(Rule, String, usize)],
    allow_path: &Path,
) -> (Vec<Finding>, usize) {
    let mut used = vec![false; allow.len()];
    let mut shown = Vec::new();
    let mut suppressed = 0;
    for f in findings {
        let rel = f.path.to_string_lossy();
        let entry = allow
            .iter()
            .position(|(rule, path, _)| *rule == f.rule && rel == path.as_str());
        match entry {
            Some(i) => {
                used[i] = true;
                suppressed += 1;
            }
            None => shown.push(f),
        }
    }
    for ((rule, path, line), _) in allow.iter().zip(used).filter(|(_, used)| !used) {
        shown.push(Finding {
            rule: *rule,
            path: allow_path.to_path_buf(),
            line: *line,
            text: format!("stale allowlist entry, waives nothing: {path}"),
        });
    }
    (shown, suppressed)
}

fn run(root: &Path, allow_path: &Path) -> ExitCode {
    // Allowlist: `<rule> <path>` per line; `#` starts a comment.
    let mut allow: Vec<(Rule, String, usize)> = Vec::new();
    if let Ok(body) = fs::read_to_string(allow_path) {
        for (n, raw) in body.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(rule), Some(path)) = (parts.next(), parts.next()) else {
                eprintln!(
                    "ratel-lint: {}:{}: malformed allowlist entry: {raw:?}",
                    allow_path.display(),
                    n + 1
                );
                return ExitCode::from(2);
            };
            let Some(rule) = Rule::parse(rule) else {
                eprintln!(
                    "ratel-lint: {}:{}: unknown rule {rule:?}",
                    allow_path.display(),
                    n + 1
                );
                return ExitCode::from(2);
            };
            allow.push((rule, path.to_string(), n + 1));
        }
    }

    let mut files = Vec::new();
    for sub in SCAN_ROOTS {
        collect(&root.join(sub), &mut files);
    }

    let mut findings = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        scan_file(path, rel, &mut findings);
    }
    let mut sources = Vec::new();
    workspace_sources(root, root, &mut sources);
    let declared = Declared::scan(root, &sources);
    for doc in DOC_FILES {
        let rel = Path::new(doc);
        scan_doc_refs(&root.join(doc), rel, &sources, &declared, &mut findings);
    }

    let (shown, suppressed) = waive(findings, &allow, allow_path);
    for f in &shown {
        println!("{f}");
    }
    eprintln!(
        "ratel-lint: {} file(s), {} finding(s) ({} allowlisted)",
        files.len(),
        shown.len(),
        suppressed
    );
    if shown.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root = None;
    let mut allow = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--allow" => allow = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!(
                    "usage: ratel-lint [--root <workspace-root>] [--allow <allowlist>]\n\
                     Scans crates/, src/, and tools/ for banned patterns and README.md and\n\
                     DESIGN.md for `.rs` paths that name no file and `Type::name`s that\n\
                     name nothing declared; exits 1 on findings."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ratel-lint: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    // Default root: walk up from cwd to the directory holding Cargo.toml
    // with a [workspace] table (cargo runs binaries from the workspace
    // root, so cwd alone is usually right).
    let root = root.unwrap_or_else(|| {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        let mut dir = cwd.as_path();
        loop {
            let manifest = dir.join("Cargo.toml");
            if let Ok(body) = fs::read_to_string(&manifest) {
                if body.contains("[workspace]") {
                    return dir.to_path_buf();
                }
            }
            match dir.parent() {
                Some(p) => dir = p,
                None => return cwd,
            }
        }
    });
    let allow = allow.unwrap_or_else(|| root.join("ratel-lint.allow"));
    run(&root, &allow)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_src(src: &str, rel: &str) -> Vec<(Rule, usize)> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static PROBE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ratel-lint-test-{}-{}",
            std::process::id(),
            PROBE.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("probe.rs");
        fs::write(&file, src).unwrap();
        let mut findings = Vec::new();
        scan_file(&file, Path::new(rel), &mut findings);
        let _ = fs::remove_dir_all(&dir);
        findings.into_iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn flags_unwrap_in_library_code() {
        let hits = scan_src("fn f() {\n    x.unwrap();\n}\n", "crates/x/src/lib.rs");
        assert_eq!(hits, vec![(Rule::NoUnwrap, 2)]);
    }

    #[test]
    fn skips_unwrap_in_cfg_test_module() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n";
        assert!(scan_src(src, "crates/x/src/lib.rs").is_empty());
    }

    #[test]
    fn skips_unwrap_in_comments_and_strings() {
        let src = "// call .unwrap() here\nfn f() { let s = \".unwrap()\"; }\n";
        assert!(scan_src(src, "crates/x/src/lib.rs").is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f() { x.unwrap_or_else(|e| e.into_inner()); }\n";
        assert!(scan_src(src, "crates/x/src/lib.rs").is_empty());
    }

    #[test]
    fn flags_sleep_under_held_guard_but_not_after_drop() {
        let src = "fn f() {\n    let g = m.lock();\n    thread::sleep(d);\n    drop(g);\n    thread::sleep(d);\n}\n";
        assert_eq!(
            scan_src(src, "crates/x/src/lib.rs"),
            vec![(Rule::NoSleepUnderLock, 3)]
        );
    }

    #[test]
    fn deref_copy_and_projected_locks_hold_no_guard() {
        // `*x.lock()` copies out and `.lock().clone()` projects; both drop
        // the guard at the end of the statement.
        let src = "fn f() {\n    let v = *x.lock();\n    let p = x.lock().clone();\n    thread::sleep(d);\n}\n";
        assert!(scan_src(src, "crates/x/src/lib.rs").is_empty());
    }

    #[test]
    fn char_literals_do_not_break_string_or_brace_tracking() {
        // A `'\"'` char literal must not flip string parity (or the later
        // "static mut" string content would scan as code), and `'{'`
        // must not perturb brace depth.
        let src = "fn f(c: char) {\n    if c == '\"' {}\n    if c == '{' {}\n    let s = \"static mut\";\n}\n";
        assert!(scan_src(src, "crates/x/src/lib.rs").is_empty());
    }

    #[test]
    fn string_line_continuation_keeps_lines_aligned() {
        // The continuation makes the literal span lines 2-3, so the
        // unwrap sits on line 4 — a sanitizer that swallowed the escaped
        // newline would report it at 3.
        let src = "fn f() {\n    let s = \"a \\\n        b\";\n    x.unwrap();\n}\n";
        assert_eq!(
            scan_src(src, "crates/x/src/lib.rs"),
            vec![(Rule::NoUnwrap, 4)]
        );
    }

    #[test]
    fn guard_scope_ends_with_block() {
        let src = "fn f() {\n    {\n        let g = m.lock();\n    }\n    thread::sleep(d);\n}\n";
        assert!(scan_src(src, "crates/x/src/lib.rs").is_empty());
    }

    #[test]
    fn doc_refs_resolve_whole_or_by_tail() {
        let dir = std::env::temp_dir().join(format!("ratel-lint-docs-{}", std::process::id()));
        fs::create_dir_all(dir.join("crates/x/src")).unwrap();
        fs::write(dir.join("crates/x/src/plan.rs"), "").unwrap();
        let doc = dir.join("DESIGN.md");
        let text = "`crates/x/src/plan.rs`, `x/src/plan.rs` and `plan.rs`\n\
                    ```text\n`benches/gone.rs` but not `tests/*.rs`, `a b.rs` or `.rs`\n";
        fs::write(&doc, text).unwrap();
        let mut sources = Vec::new();
        workspace_sources(&dir, &dir, &mut sources);
        let declared = Declared::default();
        let mut findings = Vec::new();
        scan_doc_refs(
            &doc,
            Path::new("DESIGN.md"),
            &sources,
            &declared,
            &mut findings,
        );
        let _ = fs::remove_dir_all(&dir);
        let hits: Vec<_> = findings.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(hits, vec![(Rule::DocRefs, 3)]);
        assert!(findings[0].text.contains("benches/gone.rs"));
    }

    #[test]
    fn doc_refs_name_declared_members_of_declared_types() {
        let dir = std::env::temp_dir().join(format!("ratel-lint-members-{}", std::process::id()));
        fs::create_dir_all(dir.join("crates/x/src")).unwrap();
        let src = "pub struct Plan {\n    pub(crate) step: u8,\n}\n\
                   impl Plan {\n    pub fn lower() {}\n    // fn fold_in() {}\n}\n\
                   pub enum Tier {\n    Gpu,\n    Host(u8),\n}\n";
        fs::write(dir.join("crates/x/src/lib.rs"), src).unwrap();
        let doc = dir.join("DESIGN.md");
        let text = "`Plan::lower()`, `Plan::step`, `Tier::{Gpu, Host}` and `x::Plan`\n\
                    `Plan::fold_in(other)` and `Tier::{Gpu, Ssd}`\n\
                    `Vec::fold_in`, `x::fold_in` and `Plan::<u8>::fold_in` are not checked\n";
        fs::write(&doc, text).unwrap();
        let mut sources = Vec::new();
        workspace_sources(&dir, &dir, &mut sources);
        let declared = Declared::scan(&dir, &sources);
        let mut findings = Vec::new();
        scan_doc_refs(
            &doc,
            Path::new("DESIGN.md"),
            &sources,
            &declared,
            &mut findings,
        );
        let _ = fs::remove_dir_all(&dir);
        let hits: Vec<_> = findings.iter().map(|f| (f.line, f.text.as_str())).collect();
        assert_eq!(
            hits,
            vec![
                (2, "`Plan::fold_in` names nothing the workspace declares"),
                (2, "`Tier::Ssd` names nothing the workspace declares"),
            ]
        );
    }

    #[test]
    fn doc_refs_resolve_a_bare_fn_name() {
        let dir = std::env::temp_dir().join(format!("ratel-lint-fns-{}", std::process::id()));
        fs::create_dir_all(dir.join("crates/x/src")).unwrap();
        let src = "pub struct Plan {\n    host_pool: u8,\n}\n\
                   pub(crate) fn lower_plan() {}\n// fn stale_helper() {}\n\
                   const MAX_DEPTH: usize = 2;\n";
        fs::write(dir.join("crates/x/src/lib.rs"), src).unwrap();
        let doc = dir.join("DESIGN.md");
        let text = "`lower_plan`, `lower_plan(spec)` and the `host_pool` field\n\
                    `stale_helper` and `stale_helper(layer)`\n\
                    `plan`, `tier_peak_mb_99`, `lower_plan(` and `MAX_DEPTH` are not checked\n";
        fs::write(&doc, text).unwrap();
        let mut sources = Vec::new();
        workspace_sources(&dir, &dir, &mut sources);
        let declared = Declared::scan(&dir, &sources);
        let mut findings = Vec::new();
        scan_doc_refs(
            &doc,
            Path::new("DESIGN.md"),
            &sources,
            &declared,
            &mut findings,
        );
        let _ = fs::remove_dir_all(&dir);
        let hits: Vec<_> = findings.iter().map(|f| (f.line, f.text.as_str())).collect();
        let stale = "`stale_helper` names no `fn` the workspace declares";
        assert_eq!(hits, vec![(2, stale), (2, stale)]);
    }

    #[test]
    fn a_stale_allowlist_entry_is_a_finding() {
        let hit = |rule, path: &str, line| Finding {
            rule,
            path: PathBuf::from(path),
            line,
            text: String::new(),
        };
        let findings = vec![
            hit(Rule::NoUnwrap, "crates/x/src/a.rs", 3),
            hit(Rule::NoUnwrap, "crates/x/src/a.rs", 9),
            hit(Rule::NoStaticMut, "crates/x/src/b.rs", 1),
        ];
        let allow = [
            (Rule::NoUnwrap, "crates/x/src/a.rs".to_string(), 4),
            (Rule::NoUnwrap, "crates/x/src/gone.rs".to_string(), 5),
        ];
        let (shown, suppressed) = waive(findings, &allow, Path::new("ratel-lint.allow"));
        assert_eq!(suppressed, 2);
        let shown: Vec<_> = shown
            .iter()
            .map(|f| (f.rule, f.path.to_string_lossy().into_owned(), f.line))
            .collect();
        assert_eq!(
            shown,
            vec![
                (Rule::NoStaticMut, "crates/x/src/b.rs".to_string(), 1),
                (Rule::NoUnwrap, "ratel-lint.allow".to_string(), 5),
            ]
        );
    }

    #[test]
    fn flags_a_long_fn_but_not_a_long_test_or_a_declaration() {
        let body = |n: usize| "    let x = [0u8; 4];\n".repeat(n);
        let src = format!(
            "trait T {{\n    fn declared(&self, x: [u8; 2]);\n}}\n\
             fn fits() {{\n{}}}\n\
             pub(crate) fn too_long(\n    a: u8,\n) -> u8 {{\n{}}}\n\
             #[cfg(test)]\nmod tests {{\n    fn long_test() {{\n{}    }}\n}}\n",
            body(MAX_FN_LINES - 2),
            body(MAX_FN_LINES - 3),
            body(2 * MAX_FN_LINES),
        );
        let hits = scan_src(&src, "crates/x/src/lib.rs");
        let too_long = 4 + MAX_FN_LINES;
        assert_eq!(hits, vec![(Rule::LongFn, too_long)]);
        assert_eq!(fn_keyword("let f: fn(u8) = g; let fn_x = 1;"), None);
        assert_eq!(fn_keyword("    pub fn name<T>("), Some(8));
    }

    #[test]
    fn flags_a_thread_spawn_outside_the_kernel_fan_out() {
        let src = "fn f() {\n    std::thread::scope(|s| {\n        s.spawn(|| {});\n    });\n    \
                   let h = thread::Builder::new()\n        .spawn(g);\n    \
                   thread::spawn_named(\"w\", g);\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(g); }\n}\n";
        let hits = scan_src(src, "crates/x/src/lib.rs");
        assert_eq!(hits, vec![(Rule::ThreadSpawn, 2), (Rule::ThreadSpawn, 5)]);
        assert!(scan_src(src, FAN_OUT_FILE).is_empty());
    }

    #[test]
    fn flags_static_mut_and_sim_wall_clock() {
        let hits = scan_src("static mut X: u32 = 0;\n", "crates/x/src/lib.rs");
        assert_eq!(hits, vec![(Rule::NoStaticMut, 1)]);
        let hits = scan_src(
            "fn f() { let t = Instant::now(); }\n",
            "crates/sim/src/lib.rs",
        );
        assert_eq!(hits, vec![(Rule::NoWallClockInSim, 1)]);
        // Outside crates/sim the wall clock is fine.
        assert!(scan_src(
            "fn f() { let t = Instant::now(); }\n",
            "crates/x/src/lib.rs"
        )
        .is_empty());
    }
}
