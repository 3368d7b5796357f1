//! The CI workflow runs what it names.
//!
//! Reads `.github/workflows/ci.yml` and `scripts/ci_smoke.sh` as text (no
//! YAML dependency) and checks four things:
//!
//! 1. every `--test X`, `--bin X`, `--example X` and `--bench X` a cargo
//!    command names, in the workflow or the script, is a target of the
//!    workspace;
//! 2. every test-name filter matches at least one `#[test]` fn of the
//!    targets the command runs — as a substring of `module::fn` for a
//!    positional filter, as the whole path under `--exact`;
//! 3. every `run:` value a YAML parser would misread is quoted: a plain
//!    scalar may not start with an indicator character, and may not hold
//!    `": "` or `" #"` (a `host:: hosted::` filter once made the whole
//!    file invalid, so CI ran nothing at all);
//! 4. the workflow names no test: what must run by name lives in the
//!    script, and each script section the workflow calls, or the script
//!    runs by default, exists.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Lib,
    Test,
    Bench,
    Example,
    Bin,
}

/// One cargo target and the full `module::fn` path of every test fn in
/// its sources.
#[derive(Debug)]
struct Target {
    package: String,
    kind: Kind,
    name: String,
    tests: Vec<String>,
}

/// Cargo arguments that take a value, so the value is not a filter.
const VALUED_FLAGS: &[&str] = &[
    "--target",
    "--manifest-path",
    "--features",
    "-F",
    "-j",
    "--jobs",
    "--profile",
    "--target-dir",
    "--color",
    "--message-format",
    "-Z",
];

/// Every package directory of the workspace (`crates/*`, `crates/compat/*`).
fn package_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = Vec::new();
    for parent in [root.join("crates"), root.join("crates/compat")] {
        for e in fs::read_dir(&parent).unwrap().flatten() {
            if e.path().join("Cargo.toml").is_file() {
                dirs.push(e.path());
            }
        }
    }
    dirs.sort();
    dirs
}

/// `key = "value"` on one manifest line.
fn manifest_value(line: &str, key: &str) -> Option<String> {
    let (k, v) = line.split_once('=')?;
    (k.trim() == key).then(|| v.trim().trim_matches('"').to_owned())
}

/// The `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for p in entries.flatten().map(|e| e.path()) {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Module path of a library source file: `src/a/b.rs` → `a::b::`,
/// `src/a/mod.rs` → `a::`, `src/lib.rs` → ``.
fn module_prefix(src: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(src).unwrap();
    let mut parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    let last = parts.pop().unwrap();
    let stem = last.trim_end_matches(".rs");
    if stem != "lib" && stem != "mod" {
        parts.push(stem.to_owned());
    }
    parts.iter().map(|p| format!("{p}::")).collect()
}

/// Full paths of the `#[test]` fns in one source file. Inline modules are
/// tracked by indentation, which `cargo fmt --check` keeps honest.
fn test_fns(source: &str, prefix: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut mods: Vec<(usize, String)> = Vec::new();
    let mut armed = false;
    for line in source.lines() {
        let t = line.trim_start();
        let indent = line.len() - t.len();
        if t.starts_with('}') {
            while mods.last().is_some_and(|(i, _)| *i >= indent) {
                mods.pop();
            }
        }
        let decl = t
            .trim_start_matches("pub(crate) ")
            .trim_start_matches("pub ");
        if let Some(name) = decl.strip_prefix("mod ").and_then(|r| r.strip_suffix(" {")) {
            mods.push((indent, name.trim().to_owned()));
            continue;
        }
        if t == "#[test]" {
            armed = true;
        } else if armed {
            if let Some(rest) = decl.strip_prefix("fn ") {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                let path: String = mods.iter().map(|(_, m)| format!("{m}::")).collect();
                out.push(format!("{prefix}{path}{name}"));
                armed = false;
            } else if !t.starts_with("#[") && !t.starts_with("//") {
                armed = false;
            }
        }
    }
    out
}

fn tests_in(files: &[PathBuf], prefix_of: impl Fn(&Path) -> String) -> Vec<String> {
    files
        .iter()
        .flat_map(|f| test_fns(&fs::read_to_string(f).unwrap(), &prefix_of(f)))
        .collect()
}

/// Every target of every workspace package, with its test fns: the lib,
/// the `[[kind]]` entries of the manifest, and the auto-discovered
/// `tests/`, `benches/`, `examples/` and `src/bin/` files.
fn workspace_targets(root: &Path) -> Vec<Target> {
    let mut targets = Vec::new();
    for dir in package_dirs(root) {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let mut package = String::new();
        let mut section = String::new();
        let mut declared: Vec<(Kind, String, Option<String>)> = Vec::new();
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line.to_owned();
                let kind = match line {
                    "[[test]]" => Some(Kind::Test),
                    "[[bench]]" => Some(Kind::Bench),
                    "[[example]]" => Some(Kind::Example),
                    "[[bin]]" => Some(Kind::Bin),
                    _ => None,
                };
                declared.extend(kind.map(|k| (k, String::new(), None)));
            } else if section == "[package]" {
                package = manifest_value(line, "name").unwrap_or(package);
            } else if let Some(last) = declared.last_mut().filter(|_| section.starts_with("[[")) {
                if let Some(v) = manifest_value(line, "name") {
                    last.1 = v;
                } else if let Some(v) = manifest_value(line, "path") {
                    last.2 = Some(v);
                }
            }
        }

        let src = dir.join("src");
        if src.join("lib.rs").is_file() {
            let mut files = Vec::new();
            rust_files(&src, &mut files);
            files.retain(|f| !f.starts_with(src.join("bin")));
            targets.push(Target {
                package: package.clone(),
                kind: Kind::Lib,
                name: package.replace('-', "_"),
                tests: tests_in(&files, |f| module_prefix(&src, f)),
            });
        }
        let mut seen = BTreeSet::new();
        let auto = [
            (Kind::Test, "tests"),
            (Kind::Bench, "benches"),
            (Kind::Example, "examples"),
            (Kind::Bin, "src/bin"),
        ];
        for (kind, name, path) in declared {
            let sub = auto.iter().find(|(k, _)| *k == kind).unwrap().1;
            let file = match path {
                Some(p) => dir.join(p),
                None => dir.join(sub).join(format!("{name}.rs")),
            };
            assert!(file.is_file(), "{package}: {kind:?} {name} has no {file:?}");
            seen.insert((kind, name.clone()));
            targets.push(Target {
                package: package.clone(),
                kind,
                name,
                tests: tests_in(&[file], |_| String::new()),
            });
        }
        for (kind, sub) in auto {
            let mut files = Vec::new();
            if let Ok(entries) = fs::read_dir(dir.join(sub)) {
                files.extend(entries.flatten().map(|e| e.path()));
            }
            for p in files
                .into_iter()
                .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            {
                let name = p.file_stem().unwrap().to_string_lossy().into_owned();
                if seen.insert((kind, name.clone())) {
                    targets.push(Target {
                        package: package.clone(),
                        kind,
                        name,
                        tests: tests_in(&[p], |_| String::new()),
                    });
                }
            }
        }
    }
    targets
}

/// One `run:` value: the line it starts on, its first line as written,
/// and its text (a block scalar's lines joined).
#[derive(Debug)]
struct RunValue {
    line: usize,
    header: String,
    text: String,
}

/// Every `run:` value in a workflow, block scalars included.
fn run_values(yaml: &str) -> Vec<RunValue> {
    let lines: Vec<&str> = yaml.lines().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let t = lines[i].trim_start();
        let key = t.strip_prefix("- ").unwrap_or(t);
        let key_indent = lines[i].len() - key.len();
        i += 1;
        let Some(value) = key.strip_prefix("run:") else {
            continue;
        };
        let line = i;
        let header = value.trim().to_owned();
        let mut text = header.clone();
        if header.starts_with('|') || header.starts_with('>') {
            let mut body = Vec::new();
            while let Some(l) = lines.get(i) {
                let indent = l.len() - l.trim_start().len();
                if !l.trim().is_empty() && indent <= key_indent {
                    break;
                }
                body.push(l.trim());
                i += 1;
            }
            text = body.join(if header.starts_with('>') { " " } else { "\n" });
        } else if let Some(q) = ['"', '\''].into_iter().find(|q| header.starts_with(*q)) {
            text = header.trim_matches(q).to_owned();
        }
        out.push(RunValue { line, header, text });
    }
    out
}

/// Why a `run:` value's first line would not parse as the plain string it
/// is meant to be, if it would not.
fn quoting_problem(header: &str) -> Option<&'static str> {
    const INDICATORS: &str = "-?:,[]{}#&*!|>'\"%@`";
    if ["|", "|-", "|+", ">", ">-", ">+"].contains(&header) {
        return None;
    }
    if let Some(q) = ['"', '\''].into_iter().find(|q| header.starts_with(*q)) {
        return (header.len() < 2 || !header.ends_with(q)).then_some("unterminated quote");
    }
    if header.starts_with(|c| INDICATORS.contains(c)) {
        Some("starts with a YAML indicator character")
    } else if header.contains(": ") || header.ends_with(':') {
        Some("holds ': ', which makes it a mapping")
    } else if header.contains(" #") {
        Some("holds ' #', which starts a comment")
    } else {
        None
    }
}

/// What one cargo command names: the package, explicit targets, and the
/// test-name filters.
#[derive(Debug, Default)]
struct CargoCall {
    package: Option<String>,
    targets: Vec<(Kind, String)>,
    filters: Vec<String>,
    exact: bool,
}

fn parse_cargo(command: &str) -> Option<CargoCall> {
    let tokens: Vec<&str> = command.split_whitespace().collect();
    let at = tokens.iter().position(|t| *t == "cargo")?;
    let mut rest = tokens[at + 1..]
        .iter()
        .copied()
        .filter(|t| !t.starts_with('+'));
    let takes_filters = matches!(rest.next()?, "test" | "bench");
    let mut call = CargoCall::default();
    let mut after_dashes = false;
    while let Some(tok) = rest.next() {
        let kind = match tok {
            "--exact" if after_dashes => {
                call.exact = true;
                continue;
            }
            t if after_dashes || !t.starts_with('-') => {
                if takes_filters && !t.starts_with('-') {
                    call.filters.push(t.to_owned());
                }
                continue;
            }
            "--" => {
                after_dashes = true;
                continue;
            }
            "-p" | "--package" => {
                call.package = rest.next().map(str::to_owned);
                continue;
            }
            "--lib" => Kind::Lib,
            "--test" => Kind::Test,
            "--bench" => Kind::Bench,
            "--example" => Kind::Example,
            "--bin" => Kind::Bin,
            t => {
                if VALUED_FLAGS.contains(&t) {
                    rest.next();
                }
                continue;
            }
        };
        let name = if kind == Kind::Lib { "" } else { rest.next()? };
        call.targets.push((kind, name.to_owned()));
    }
    Some(call)
}

/// The commands inside one `run:` value.
fn commands(text: &str) -> Vec<String> {
    text.replace("\\\n", " ")
        .lines()
        .flat_map(|l| l.split("&&"))
        .map(|c| c.trim().to_owned())
        .filter(|c| !c.is_empty())
        .collect()
}

/// Check every cargo command in `runs` against the workspace. Returns the
/// problems found, the cargo commands seen and the filters checked.
fn check_commands(runs: &[RunValue], targets: &[Target]) -> (Vec<String>, usize, usize) {
    let mut problems = Vec::new();
    let (mut n_commands, mut n_filters) = (0, 0);
    for run in runs {
        for cmd in commands(&run.text) {
            let Some(call) = parse_cargo(&cmd) else {
                continue;
            };
            n_commands += 1;
            let in_package = |t: &&Target| call.package.as_ref().is_none_or(|p| *p == t.package);
            if !targets.iter().any(|t| in_package(&t)) {
                problems.push(format!("line {}: `{cmd}`: no such package", run.line));
            }
            let mut selected: Vec<&Target> = Vec::new();
            for (kind, name) in &call.targets {
                let before = selected.len();
                selected.extend(
                    targets
                        .iter()
                        .filter(in_package)
                        .filter(|t| t.kind == *kind && (*kind == Kind::Lib || t.name == *name)),
                );
                if selected.len() == before {
                    problems.push(format!(
                        "line {}: `{cmd}`: no {kind:?} target {name:?}",
                        run.line
                    ));
                }
            }
            if call.targets.is_empty() {
                // No explicit target: `cargo test` runs the libs, the
                // integration tests and the bins of the selected packages.
                selected.extend(
                    targets
                        .iter()
                        .filter(in_package)
                        .filter(|t| matches!(t.kind, Kind::Lib | Kind::Test | Kind::Bin)),
                );
            }
            for filter in &call.filters {
                n_filters += 1;
                let mut names = selected.iter().flat_map(|t| &t.tests);
                let hit = if call.exact {
                    names.any(|n| n == filter)
                } else {
                    names.any(|n| n.contains(filter.as_str()))
                };
                if !hit {
                    problems.push(format!(
                        "line {}: `{cmd}`: filter {filter:?}{} matches no test fn",
                        run.line,
                        if call.exact { " (--exact)" } else { "" }
                    ));
                }
            }
        }
    }
    (problems, n_commands, n_filters)
}

/// The smoke script's path from the repository root, as the workflow
/// calls it.
const SMOKE_SCRIPT: &str = "scripts/ci_smoke.sh";

fn workflow() -> String {
    fs::read_to_string(repo_root().join(".github/workflows/ci.yml")).unwrap()
}

fn smoke_script() -> String {
    fs::read_to_string(repo_root().join(SMOKE_SCRIPT)).unwrap()
}

/// True if the smoke script defines a section (a function) `name`.
fn has_section(script: &str, name: &str) -> bool {
    script.contains(&format!("\n{name}() ("))
}

/// Every command line of a shell script, as a [`RunValue`] each: comments
/// and blank lines skipped, `\`-continued lines joined.
fn script_commands(script: &str) -> Vec<RunValue> {
    script
        .replace("\\\n", " ")
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .map(|(line, l)| RunValue {
            line,
            header: l.to_owned(),
            text: l.to_owned(),
        })
        .collect()
}

#[test]
fn workflow_names_existing_targets_and_tests() {
    let targets = workspace_targets(&repo_root());
    let runs = run_values(&workflow());
    let (problems, n_commands, n_filters) = check_commands(&runs, &targets);
    assert!(problems.is_empty(), "{}", problems.join("\n"));
    // The walk must have seen the workflow's cargo lines, or the checks
    // above passed vacuously.
    assert!(n_commands >= 5, "only {n_commands} cargo commands found");
    assert_eq!(
        n_filters, 0,
        "the workflow names tests; move them to {SMOKE_SCRIPT}"
    );

    // Every call of the script names sections the script defines.
    let script = smoke_script();
    let calls: Vec<&RunValue> = runs
        .iter()
        .filter(|r| r.text.starts_with(SMOKE_SCRIPT))
        .collect();
    assert!(!calls.is_empty(), "the workflow never runs {SMOKE_SCRIPT}");
    for call in calls {
        for section in call.text.split_whitespace().skip(1) {
            assert!(
                has_section(&script, section),
                "line {}: {SMOKE_SCRIPT} has no section {section:?}",
                call.line
            );
        }
    }
    // So does the script's own no-argument list.
    let defaults = script
        .lines()
        .filter_map(|l| l.trim().strip_prefix("sections=("))
        .find(|l| !l.contains('$'))
        .and_then(|l| l.strip_suffix(')'))
        .expect("the script has a default section list");
    for section in defaults.split_whitespace() {
        assert!(
            has_section(&script, section),
            "{SMOKE_SCRIPT}'s default list names no section {section:?}"
        );
    }
}

#[test]
fn smoke_script_names_existing_targets_and_tests() {
    let targets = workspace_targets(&repo_root());
    let (problems, n_commands, n_filters) =
        check_commands(&script_commands(&smoke_script()), &targets);
    assert!(
        problems.is_empty(),
        "{SMOKE_SCRIPT}:\n{}",
        problems.join("\n")
    );
    assert!(n_commands >= 20, "only {n_commands} cargo commands found");
    assert!(n_filters >= 10, "only {n_filters} filters found");
}

#[test]
fn run_values_that_yaml_would_misread_are_quoted() {
    let problems: Vec<String> = run_values(&workflow())
        .iter()
        .filter_map(|r| {
            quoting_problem(&r.header).map(|why| format!("line {}: {why}: {}", r.line, r.header))
        })
        .collect();
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn checker_catches_the_shapes_it_exists_for() {
    // The line that once made the whole workflow invalid, and its fix.
    let broken = "cargo test -p scuba-cluster -- host:: hosted:: --nocapture";
    assert!(quoting_problem(broken).is_some());
    assert!(quoting_problem(&format!("\"{broken}\"")).is_none());
    assert!(quoting_problem("*anchor-lookalike").is_some());
    assert!(quoting_problem(">-").is_none());

    let yaml = "\
steps:
  - run: cargo test --test no_such_target
  - run: cargo test --test format_compat no_such_test_name
  - run: >-
      cargo test -p scuba-leaf --lib -- --exact
      server::tests::no_such_test
  - run: cargo bench -p scuba-bench --bench query -- --test
  - run: cargo test --release -p scuba-leaf hydrat -- --nocapture
";
    let targets = workspace_targets(&repo_root());
    let (problems, n_commands, n_filters) = check_commands(&run_values(yaml), &targets);
    assert_eq!((n_commands, n_filters), (5, 3), "{problems:#?}");
    assert_eq!(problems.len(), 3, "{problems:#?}");
    assert!(problems[0].contains("no_such_target"));
    assert!(problems[1].contains("no_such_test_name"));
    assert!(problems[2].contains("--exact"));

    // In a script: comments are not commands, an env prefix is not a
    // filter, and a continued line is one command.
    let script = "\
# cargo test --test no_such_target
f() (
    PROPTEST_CASES=2000 cargo test -p scuba-query --test differential
    cargo test --release --test leaf_restart \\
        no_such_test_name -- --nocapture
)
";
    let runs = script_commands(script);
    let (problems, n_commands, n_filters) = check_commands(&runs, &targets);
    assert_eq!((n_commands, n_filters), (2, 1), "{problems:#?}");
    assert_eq!(problems.len(), 1, "{problems:#?}");
    assert!(problems[0].starts_with("line 4:"), "{problems:#?}");
    assert!(problems[0].contains("no_such_test_name"));
}

#[test]
fn test_fns_carry_their_module_path() {
    let src = "\
fn helper() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore]
    fn first() {}

    mod inner {
        #[test]
        fn second() {}
    }

    #[test]
    fn third() {}
}
";
    assert_eq!(
        test_fns(src, "server::"),
        [
            "server::tests::first",
            "server::tests::inner::second",
            "server::tests::third"
        ]
    );
}
