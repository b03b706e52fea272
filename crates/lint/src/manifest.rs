//! Workspace discovery from the Cargo manifests.
//!
//! `gw-lint` derives the crate dependency DAG the same way `cargo
//! metadata` does — from the manifests — but parses the small TOML
//! subset this workspace uses directly, so the lint needs no TOML
//! library and runs in offline CI without invoking cargo. Only `[package]
//! name` and the `[dependencies]` section matter; `[dev-dependencies]`
//! are deliberately ignored because test conveniences do not create
//! product linkage (e.g. `gw-wire` uses `gw-fddi` builders in its
//! robustness tests without the wire formats depending on FDDI).

use std::io;
use std::path::{Path, PathBuf};

/// One workspace member crate.
#[derive(Debug, Clone)]
pub struct Crate {
    /// Package name from `[package] name`.
    pub name: String,
    /// Workspace-relative directory (`crates/wire`, or `.` for the
    /// root package).
    pub dir: String,
    /// Names of `[dependencies]` entries that are themselves workspace
    /// members — the edges of the internal DAG.
    pub internal_deps: Vec<String>,
}

/// The parsed workspace: every member crate plus the root package.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Member crates in discovery order (root package first).
    pub crates: Vec<Crate>,
}

impl Workspace {
    /// Read the root manifest, expand the `members` globs, and parse
    /// every member's `[package]` and `[dependencies]`.
    pub fn discover(root: &Path) -> io::Result<Workspace> {
        let root_manifest = std::fs::read_to_string(root.join("Cargo.toml"))?;
        let mut dirs: Vec<String> = Vec::new();
        for member in members_of(&root_manifest) {
            if let Some(prefix) = member.strip_suffix("/*") {
                let mut expanded: Vec<String> = Vec::new();
                for entry in std::fs::read_dir(root.join(prefix))? {
                    let entry = entry?;
                    if entry.path().join("Cargo.toml").is_file() {
                        let name = entry.file_name().to_string_lossy().into_owned();
                        expanded.push(format!("{prefix}/{name}"));
                    }
                }
                expanded.sort();
                dirs.extend(expanded);
            } else {
                dirs.push(member);
            }
        }

        // The root package (when the workspace manifest also declares
        // `[package]`) is a member too.
        let mut parsed: Vec<(String, String, Vec<String>)> = Vec::new();
        if root_manifest.lines().any(|l| l.trim() == "[package]") {
            let (name, deps) = parse_manifest(&root_manifest);
            parsed.push((name, ".".to_string(), deps));
        }
        for dir in dirs {
            let text = std::fs::read_to_string(root.join(&dir).join("Cargo.toml"))?;
            let (name, deps) = parse_manifest(&text);
            parsed.push((name, dir, deps));
        }

        let member_names: Vec<String> = parsed.iter().map(|(n, _, _)| n.clone()).collect();
        let crates = parsed
            .into_iter()
            .map(|(name, dir, deps)| Crate {
                name,
                dir,
                internal_deps: deps.into_iter().filter(|d| member_names.contains(d)).collect(),
            })
            .collect();
        Ok(Workspace { crates })
    }

    /// Every `.rs` file under each member's `src/`, workspace-relative,
    /// sorted. Fixture corpora and vendored shims are outside these
    /// trees by construction.
    pub fn source_files(&self, root: &Path) -> io::Result<Vec<String>> {
        let mut files = Vec::new();
        for krate in &self.crates {
            let src =
                if krate.dir == "." { root.join("src") } else { root.join(&krate.dir).join("src") };
            if src.is_dir() {
                walk_rs(&src, &mut files)?;
            }
        }
        let mut rel: Vec<String> = files
            .iter()
            .filter_map(|p| p.strip_prefix(root).ok())
            .map(|p| p.to_string_lossy().replace('\\', "/"))
            .collect();
        rel.sort();
        Ok(rel)
    }

    /// The crate named `name`, if it is a member.
    pub fn get(&self, name: &str) -> Option<&Crate> {
        self.crates.iter().find(|c| c.name == name)
    }

    /// True when `from` can reach `to` through internal `[dependencies]`
    /// edges (transitively).
    pub fn reaches(&self, from: &str, to: &str) -> bool {
        let mut stack: Vec<&str> = vec![from];
        let mut seen: Vec<&str> = Vec::new();
        while let Some(cur) = stack.pop() {
            if seen.contains(&cur) {
                continue;
            }
            seen.push(cur);
            if let Some(krate) = self.get(cur) {
                for dep in &krate.internal_deps {
                    if dep == to {
                        return true;
                    }
                    stack.push(dep);
                }
            }
        }
        false
    }
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The `members = [...]` array of the `[workspace]` section, handling a
/// single- or multi-line array literal.
fn members_of(manifest: &str) -> Vec<String> {
    let mut in_workspace = false;
    let mut collecting = false;
    let mut acc = String::new();
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_workspace = t == "[workspace]";
            continue;
        }
        if !in_workspace {
            continue;
        }
        if collecting {
            acc.push_str(t);
            if t.contains(']') {
                break;
            }
            continue;
        }
        if let Some(rest) = t.strip_prefix("members") {
            let rest = rest.trim_start().trim_start_matches('=').trim_start();
            acc.push_str(rest);
            if !rest.contains(']') {
                collecting = true;
                continue;
            }
            break;
        }
    }
    acc.split('"').skip(1).step_by(2).map(str::to_string).collect()
}

/// Parse `[package] name` and the `[dependencies]` entry names out of a
/// member manifest.
fn parse_manifest(text: &str) -> (String, Vec<String>) {
    let mut section = String::new();
    let mut name = String::new();
    let mut deps = Vec::new();
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with('[') && t.ends_with(']') {
            section = t[1..t.len() - 1].to_string();
            // `[dependencies.foo]` table headers declare a dep too.
            if let Some(dep) = section.strip_prefix("dependencies.") {
                deps.push(dep.to_string());
            }
            continue;
        }
        if section == "package" {
            if let Some(rest) = t.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    name = rest.trim().trim_matches('"').to_string();
                }
            }
        } else if section == "dependencies" && !t.is_empty() && !t.starts_with('#') {
            // Forms: `foo.workspace = true`, `foo = { ... }`, `foo = "1"`.
            let key = t.split(['=', ' ', '\t']).next().unwrap_or("");
            let dep = key.split('.').next().unwrap_or("").trim();
            if !dep.is_empty() {
                deps.push(dep.to_string());
            }
        }
    }
    (name, deps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_dep_forms() {
        let (name, deps) = parse_manifest(
            "[package]\nname = \"gw-x\"\n[dependencies]\ngw-a.workspace = true\ngw-b = { path = \"../b\" }\n\n[dependencies.gw-c]\npath = \"../c\"\n[dev-dependencies]\ngw-d.workspace = true\n",
        );
        assert_eq!(name, "gw-x");
        assert_eq!(deps, vec!["gw-a", "gw-b", "gw-c"]);
    }

    #[test]
    fn members_single_and_multi_line() {
        assert_eq!(members_of("[workspace]\nmembers = [\"crates/*\"]\n"), vec!["crates/*"]);
        assert_eq!(members_of("[workspace]\nmembers = [\n  \"a\",\n  \"b\",\n]\n"), vec!["a", "b"]);
    }
}
