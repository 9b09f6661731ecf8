//! Docs-drift gate: the operator docs must keep up with the CLI and the code.
//!
//! Five invariants, all cheap and all the kind that silently rot:
//!
//! 1. Every flag printed by `sam-cli <cmd> --help`, for every subcommand
//!    that has flags, appears in the corresponding operator guide
//!    (docs/SERVING.md, docs/TRAINING.md, docs/SHARDING.md,
//!    docs/WORKGEN.md) or, for the pipeline subcommands, in README.md.
//!    Adding a flag without documenting it fails CI.
//! 2. Every relative markdown link in README.md, DESIGN.md, ROADMAP.md, and
//!    docs/*.md resolves to a file that exists — renames and deletions can't
//!    leave dangling links behind.
//! 3. Every back-ticked first-party Rust path in README.md, DESIGN.md and
//!    docs/*.md names an item defined under `crates/*/src` or `src/`: a
//!    path rooted at one of our crates (`sam-ar::X`, `sam_serve::x`) or at
//!    one of our types (`Type::method`). Std and vendored paths are skipped.
//!    Deleting or renaming an item the docs cite fails CI.
//! 4. Every experiment the docs name is a suite of `run_all`: an `--only`
//!    id in README.md, DESIGN.md, EXPERIMENTS.md or docs/*.md must be in
//!    its suite table, and an `exp_*` name (the per-experiment binaries it
//!    replaced) must not appear at all. README and DESIGN list every suite.
//! 5. Every route of the HTTP grammar appears as `METHOD /path/template`
//!    in some docs/*.md guide. The routes are read from the doc lines of
//!    `sam_serve::http::Route`'s variants (`` /// `GET /jobs/{id}` — … ``),
//!    which the route module's own tests hold to its parser. Adding an
//!    endpoint without documenting it fails CI.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Run `sam-cli <subcommand> --help` and collect every `--flag` token from
/// its output. The literal `[--flags]` placeholder in usage lines is not a
/// flag and is skipped.
fn help_flags(subcommand: &str) -> BTreeSet<String> {
    let output = Command::new(env!("CARGO_BIN_EXE_sam-cli"))
        .args([subcommand, "--help"])
        .output()
        .expect("run sam-cli --help");
    assert!(
        output.status.success(),
        "`sam-cli {subcommand} --help` exited with {:?}",
        output.status
    );
    let text = String::from_utf8(output.stdout).expect("utf-8 help text");
    let mut flags = BTreeSet::new();
    for token in text.split_whitespace() {
        if let Some(rest) = token.strip_prefix("--") {
            let flag: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                .collect();
            if !flag.is_empty() && flag != "flags" {
                flags.insert(flag);
            }
        }
    }
    assert!(
        flags.len() >= 5,
        "suspiciously few flags parsed from `sam-cli {subcommand} --help`: {flags:?}"
    );
    flags
}

fn assert_flags_documented(subcommand: &str, doc: &str) {
    let path = repo_root().join(doc);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let missing: Vec<String> = help_flags(subcommand)
        .into_iter()
        .filter(|flag| !text.contains(&format!("--{flag}")))
        .collect();
    assert!(
        missing.is_empty(),
        "`sam-cli {subcommand} --help` lists flags that {doc} never mentions: \
         {missing:?} — document them (or fix the help text)"
    );
}

#[test]
fn every_serve_flag_is_documented() {
    assert_flags_documented("serve", "docs/SERVING.md");
}

#[test]
fn every_train_flag_is_documented() {
    assert_flags_documented("train", "docs/TRAINING.md");
}

#[test]
fn every_router_flag_is_documented() {
    assert_flags_documented("router", "docs/SHARDING.md");
}

#[test]
fn every_workgen_flag_is_documented() {
    assert_flags_documented("workgen", "docs/WORKGEN.md");
}

#[test]
fn every_pipeline_flag_is_documented() {
    for subcommand in ["demo", "export", "generate", "evaluate", "estimate"] {
        assert_flags_documented(subcommand, "README.md");
    }
}

/// `METHOD /path/template` of every `Route` variant, from its doc line.
fn routes() -> Vec<String> {
    let source = std::fs::read_to_string(repo_root().join("crates/serve/src/http/route.rs"))
        .expect("read route.rs");
    let body = source
        .split_once("pub enum Route<'a> {")
        .expect("the Route enum")
        .1;
    let body = body.split_once("\n}").expect("the end of the Route enum").0;
    body.lines()
        .filter_map(|line| line.trim().strip_prefix("/// `"))
        .map(|text| {
            let route = text.split('`').next().unwrap_or_default();
            route.split('?').next().unwrap_or_default().to_string()
        })
        .collect()
}

#[test]
fn every_route_is_documented() {
    let docs = repo_root().join("docs");
    let mut guides = String::new();
    for entry in std::fs::read_dir(&docs).expect("read docs/") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            guides.push_str(&std::fs::read_to_string(&path).expect("read guide"));
        }
    }
    let routes = routes();
    assert!(routes.len() >= 20, "suspiciously few routes: {routes:?}");
    let missing: Vec<&String> = routes
        .iter()
        .filter(|route| !guides.contains(route.as_str()))
        .collect();
    assert!(
        missing.is_empty(),
        "routes no docs/*.md guide documents: {missing:?} — document them"
    );
}

/// Extract `](target)` markdown link targets from `text`. Good enough for
/// this repo's plain links; fenced code blocks are skipped so shell
/// snippets containing `](...)`-shaped text can't false-positive.
fn link_targets(text: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find("](") {
            let tail = &rest[open + 2..];
            match tail.find(')') {
                Some(close) => {
                    targets.push(tail[..close].to_string());
                    rest = &tail[close + 1..];
                }
                None => break,
            }
        }
    }
    targets
}

#[test]
fn every_relative_markdown_link_resolves() {
    let root = repo_root();
    let mut files: Vec<PathBuf> = ["README.md", "DESIGN.md", "ROADMAP.md", "CHANGES.md"]
        .iter()
        .map(|f| root.join(f))
        .filter(|p| p.exists())
        .collect();
    let docs = root.join("docs");
    if docs.is_dir() {
        for entry in std::fs::read_dir(&docs).expect("read docs/") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "md") {
                files.push(path);
            }
        }
    }
    assert!(
        files.len() >= 5,
        "expected several doc files, got {files:?}"
    );

    let mut broken = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let dir = file.parent().unwrap_or(Path::new("."));
        for target in link_targets(&text) {
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
                || target.starts_with('#')
                || target.is_empty()
            {
                continue;
            }
            let path_part = target.split('#').next().unwrap();
            if !dir.join(path_part).exists() {
                broken.push(format!("{} -> {target}", file.display()));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "dangling markdown links (relative targets that do not exist):\n{}",
        broken.join("\n")
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The leading identifier of `text`, if it starts with one.
fn leading_ident(text: &str) -> Option<&str> {
    let end = text.find(|c: char| !is_ident_char(c)).unwrap_or(text.len());
    (end > 0 && !text.starts_with(|c: char| c.is_ascii_digit())).then(|| &text[..end])
}

/// Names the sources under `src` define: items after a declaring keyword
/// (`fn`, `struct`, `mod`, … and `as` renames), plus every identifier that
/// opens a line as a field, variant or parameter does (`name: T`, `Name,`,
/// `Name(…)`, `Name {`). A generous superset: the gate is after names that
/// no longer exist, not after a precise resolver.
fn defined_names(src: &Path) -> BTreeSet<String> {
    const DECLARING: &str = "fn struct enum trait type const static mod union macro_rules as";
    let mut files = Vec::new();
    rust_files(src, &mut files);
    let mut names = BTreeSet::new();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let words: Vec<&str> = text
            .split(|c: char| !is_ident_char(c))
            .filter(|w| !w.is_empty())
            .collect();
        for pair in words.windows(2) {
            if DECLARING.split(' ').any(|keyword| keyword == pair[0]) {
                names.insert(pair[1].to_string());
            }
        }
        for line in text.lines() {
            let line = line.trim_start();
            let line = line
                .strip_prefix("pub(crate) ")
                .or_else(|| line.strip_prefix("pub "))
                .unwrap_or(line);
            if let Some(name) = leading_ident(line) {
                let rest = line[name.len()..].trim_start();
                let opens = rest.is_empty()
                    || rest.starts_with([',', '(', '{', '='])
                    || (rest.starts_with(':') && !rest.starts_with("::"));
                if opens {
                    names.insert(name.to_string());
                }
            }
        }
    }
    names
}

/// Inline code spans of `text` outside fenced blocks. Spans may wrap
/// across lines, as they do in markdown.
fn code_spans(text: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if !in_fence {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(|span| span.replace('\n', ""))
        .collect()
}

/// Parse one path starting at `chars[i]`: identifier segments (crate names
/// may contain `-`) joined by `::`, with `::{a, b::c}` groups expanded into
/// one path each. Returns the expanded paths and the index after the path.
fn parse_path(chars: &[char], mut i: usize) -> (Vec<Vec<String>>, usize) {
    let ident = |i: &mut usize| {
        let start = *i;
        while *i < chars.len() && (is_ident_char(chars[*i]) || chars[*i] == '-') {
            *i += 1;
        }
        chars[start..*i].iter().collect::<String>()
    };
    let mut prefix = vec![ident(&mut i)];
    while chars.get(i) == Some(&':') && chars.get(i + 1) == Some(&':') {
        i += 2;
        if chars.get(i) == Some(&'{') {
            i += 1;
            let mut paths = Vec::new();
            loop {
                while chars.get(i).is_some_and(|c| c.is_whitespace() || *c == ',') {
                    i += 1;
                }
                match chars.get(i) {
                    Some(c) if is_ident_char(*c) => {
                        let (inner, next) = parse_path(chars, i);
                        for tail in inner {
                            paths.push(prefix.iter().cloned().chain(tail).collect());
                        }
                        i = next;
                    }
                    Some('}') => return (paths, i + 1),
                    _ => return (paths, i),
                }
            }
        }
        if !chars.get(i).is_some_and(|c| is_ident_char(*c)) {
            break;
        }
        prefix.push(ident(&mut i));
    }
    (vec![prefix], i)
}

/// Every multi-segment path inside one code span.
fn paths_in(span: &str) -> Vec<Vec<String>> {
    let chars: Vec<char> = span.chars().collect();
    let mut paths = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let starts_path = (chars[i].is_ascii_alphabetic() || chars[i] == '_')
            && (i == 0 || !(is_ident_char(chars[i - 1]) || matches!(chars[i - 1], '.' | '-')));
        if starts_path {
            let (found, next) = parse_path(&chars, i);
            paths.extend(found.into_iter().filter(|p| p.len() > 1));
            i = next.max(i + 1);
        } else {
            i += 1;
        }
    }
    paths
}

#[test]
fn every_first_party_code_path_in_the_docs_exists() {
    let root = repo_root();
    let mut files: Vec<PathBuf> = vec![root.join("README.md"), root.join("DESIGN.md")];
    for entry in std::fs::read_dir(root.join("docs")).expect("read docs/") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    // Names per first-party crate (`sam_ar` → crates/ar/src), and all of
    // them together for the facade (`sam::`) and type-rooted paths.
    let mut by_crate = std::collections::BTreeMap::new();
    by_crate.insert("sam".to_string(), defined_names(&root.join("src")));
    for entry in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        let dir = entry.expect("dir entry").path();
        if dir.join("src").is_dir() {
            let name = dir.file_name().unwrap().to_string_lossy();
            by_crate.insert(format!("sam_{name}"), defined_names(&dir.join("src")));
        }
    }
    let defined: BTreeSet<String> = by_crate.values().flatten().cloned().collect();

    let mut stale = Vec::new();
    let mut checked = 0usize;
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        for span in code_spans(&text) {
            for path in paths_in(&span) {
                let head = path[0].replace('-', "_");
                // A crate-rooted path resolves in that crate (the facade in
                // all of them); a type-rooted one anywhere in the tree.
                let scope = match by_crate.get(&head) {
                    Some(_) if head == "sam" => &defined,
                    Some(names) => names,
                    None if head.starts_with(|c: char| c.is_ascii_uppercase())
                        && defined.contains(&head) =>
                    {
                        &defined
                    }
                    None => continue,
                };
                checked += 1;
                let missing: Vec<&String> =
                    path[1..].iter().filter(|s| !scope.contains(*s)).collect();
                if !missing.is_empty() {
                    stale.push(format!(
                        "{}: `{}` ({missing:?} not defined)",
                        file.display(),
                        path.join("::")
                    ));
                }
            }
        }
    }
    assert!(
        checked >= 20,
        "suspiciously few first-party paths found in the docs: {checked}"
    );
    assert!(
        stale.is_empty(),
        "docs cite first-party paths that no longer exist:\n{}",
        stale.join("\n")
    );
}

/// The `--only` ids of `run_all`: the quoted first element of each
/// `("id", module::run)` row of its suite table.
fn run_all_suites() -> BTreeSet<String> {
    let path = repo_root().join("crates/bench/src/bin/run_all.rs");
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    src.lines()
        .filter_map(|line| line.trim().strip_prefix("(\""))
        .filter_map(|rest| rest.split_once('"'))
        .map(|(id, _)| id.to_string())
        .collect()
}

/// Experiment names in `text`: every id after `--only`, and every
/// `exp_*` identifier that is not a file name (`exp_results.json`).
fn experiment_names(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    for (at, _) in text.match_indices("--only") {
        let ids: String = text[at + "--only".len()..]
            .trim_start()
            .chars()
            .take_while(|c| is_ident_char(*c) || *c == ',')
            .collect();
        names.extend(ids.split(',').filter(|id| !id.is_empty()).map(String::from));
    }
    for (at, _) in text.match_indices("exp_") {
        if text[..at].ends_with(is_ident_char) {
            continue;
        }
        let name = leading_ident(&text[at..]).unwrap_or_default();
        if !text[at + name.len()..].starts_with('.') {
            names.push(name.to_string());
        }
    }
    names
}

#[test]
fn every_experiment_name_in_the_docs_is_a_run_all_suite() {
    let root = repo_root();
    let suites = run_all_suites();
    assert!(
        suites.len() >= 10,
        "suspiciously few suites parsed from run_all.rs: {suites:?}"
    );
    let mut files: Vec<PathBuf> = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .iter()
        .map(|f| root.join(f))
        .collect();
    for entry in std::fs::read_dir(root.join("docs")).expect("read docs/") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    let mut unknown = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let names = experiment_names(&text);
        unknown.extend(
            names
                .iter()
                .filter(|name| !suites.contains(*name))
                .map(|name| format!("{}: `{name}`", file.display())),
        );
        if *file == root.join("README.md") || *file == root.join("DESIGN.md") {
            unknown.extend(
                suites
                    .iter()
                    .filter(|id| !names.contains(id))
                    .map(|id| format!("{}: no `--only {id}` row", file.display())),
            );
        }
    }
    assert!(
        unknown.is_empty(),
        "docs name experiments run_all does not have (ids: {suites:?}):\n{}",
        unknown.join("\n")
    );
}
