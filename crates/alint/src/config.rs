//! `alint.toml`: the lint scopes.
//!
//! There is no allowlist: an intentional site carries an inline
//! `// alint: allow(Lx)` marker, and any table other than `[scope]` is an
//! error.
//!
//! The parser below handles exactly the TOML subset the config uses —
//! the `[scope]` header and `key = ["a", "b"]` single-line string arrays
//! — because no TOML crate is available offline.

use std::collections::BTreeMap;
use std::path::Path;

/// Parsed configuration. `alint.toml` is the only source of the tables:
/// the default is all-empty, and a key the file omits stays empty.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Crate roots whose public `Result` functions L3 (typed errors) covers.
    pub typed_error_crates: Vec<String>,
    /// Directories (workspace-relative) scanned for sources.
    pub scan_roots: Vec<String>,
}

/// A config-file problem with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "alint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// `key = [..]` arrays, each with its source line.
type KeyedValues = BTreeMap<String, (Vec<String>, usize)>;

/// The one section header the file may use. It is organizational: every
/// key lands in one namespace. Any other header — such as the `[units]`,
/// `[locks]` or `[determinism]` tables of retired passes, or an array of
/// tables — is an error.
const TABLE: &str = "[scope]";

/// Parse a single-line `["a", "b"]` string array.
fn parse_string_array(raw: &str, line: usize) -> Result<Vec<String>, ConfigError> {
    let error = |message: String| ConfigError { line, message };
    let raw = raw.trim();
    let Some(inner) = raw.strip_prefix('[') else {
        return Err(error(format!("expected a string array, got `{raw}`")));
    };
    let Some(inner) = inner.strip_suffix(']') else {
        return Err(error("arrays must be closed on the same line".into()));
    };
    let mut items = Vec::new();
    for piece in inner.split(',') {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        let Some(item) = piece.strip_prefix('"').and_then(|p| p.strip_suffix('"')) else {
            return Err(error(format!("expected a string, got `{piece}`")));
        };
        items.push(item.to_string());
    }
    Ok(items)
}

/// Parse the TOML subset described in the module docs.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    let mut config = Config::default();
    let mut keys: KeyedValues = BTreeMap::new();

    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            if line != TABLE {
                return Err(ConfigError {
                    line: line_no,
                    message: format!("unknown table `{line}`"),
                });
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ConfigError {
                line: line_no,
                message: format!("expected `key = value`, got `{line}`"),
            });
        };
        let value = parse_string_array(value, line_no)?;
        keys.insert(key.trim().to_string(), (value, line_no));
    }

    let mut take_list = |name: &str, target: &mut Vec<String>| {
        if let Some((items, _)) = keys.remove(name) {
            *target = items;
        }
    };
    take_list("typed_error_crates", &mut config.typed_error_crates);
    take_list("scan_roots", &mut config.scan_roots);
    if let Some((key, (_, line))) = keys.into_iter().next() {
        return Err(ConfigError {
            line,
            message: format!("unknown key `{key}`"),
        });
    }

    Ok(config)
}

/// Strip a `#` comment, respecting string literals.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Why `alint.toml` could not be loaded.
#[derive(Debug)]
pub enum LoadError {
    /// The file is missing or could not be read.
    Io {
        /// Path that failed.
        path: String,
        /// Underlying I/O error.
        error: std::io::Error,
    },
    /// The file was read but did not parse.
    Parse(ConfigError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io { path, error } => write!(f, "reading {path}: {error}"),
            LoadError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io { error, .. } => Some(error),
            LoadError::Parse(e) => Some(e),
        }
    }
}

impl From<ConfigError> for LoadError {
    fn from(e: ConfigError) -> Self {
        LoadError::Parse(e)
    }
}

/// Load `alint.toml` from `root`. A missing file is an error: there are no
/// built-in tables to fall back on.
pub fn load(root: &Path) -> Result<Config, LoadError> {
    let path = root.join("alint.toml");
    let text = std::fs::read_to_string(&path).map_err(|error| LoadError::Io {
        path: path.display().to_string(),
        error,
    })?;
    Ok(parse(&text)?)
}

/// The committed `alint.toml`, parsed: the repo's tables for unit tests.
#[cfg(test)]
pub(crate) fn committed() -> Config {
    parse(include_str!("../../../alint.toml")).expect("the committed alint.toml parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scopes() {
        let cfg = parse(
            r#"
# comment
[scope]
typed_error_crates = ["crates/a", "crates/b"]   # trailing comment
scan_roots = ["crates"]
"#,
        )
        .expect("parse");
        assert_eq!(cfg.typed_error_crates, vec!["crates/a", "crates/b"]);
        assert_eq!(cfg.scan_roots, vec!["crates"]);
    }

    #[test]
    fn non_array_values_are_errors() {
        for value in ["\"crates\"", "3", "[3]", "[\"a\""] {
            assert!(
                parse(&format!("scan_roots = {value}\n")).is_err(),
                "{value}"
            );
        }
    }

    #[test]
    fn unknown_keys_are_errors() {
        assert!(parse("wibble = 3\n").is_err());
        // The keys and tables of the passes retired to rustc and clippy
        // are unknown now.
        for key in [
            "lib_crates",
            "hot_paths",
            "float_cmp_approved",
            "determinism_crates",
            "spawn_approved",
            "wall_clock_approved",
            "ordered_containers",
            "lock_classes",
            "lock_order",
            "expensive_idents",
            "unit_suffixes",
            "unit_types",
            "unit_conversions",
        ] {
            assert!(parse(&format!("{key} = []\n")).is_err(), "{key}");
        }
        // So are their tables, and the retired `[[allow]]` list: an
        // intentional site carries an inline marker instead.
        for table in ["[units]", "[locks]", "[determinism]", "[[allow]]"] {
            let err = parse(&format!("{table}\n")).unwrap_err();
            assert!(err.message.contains("unknown table"), "{err}");
        }
    }

    #[test]
    fn committed_config_covers_the_typed_error_crates() {
        let cfg = committed();
        // alint lints itself: typed errors apply to the linter's own
        // library sources.
        assert!(cfg.typed_error_crates.contains(&"crates/alint".to_string()));
        assert!(cfg.typed_error_crates.contains(&"crates/gp".to_string()));
    }

    /// The determinism contract (DESIGN §9) lives in clippy's lists, not in
    /// an alint pass; this keeps a dropped entry from passing CI silently.
    #[test]
    fn committed_clippy_lists_hold_the_determinism_contract() {
        let clippy = include_str!("../../../clippy.toml");
        let (types, methods) = clippy
            .split_once("disallowed-methods")
            .expect("clippy.toml has a disallowed-methods list");
        let listed = |list: &str, path: &str| list.contains(&format!("path = \"{path}\""));
        for path in [
            "std::collections::HashMap",
            "std::collections::HashSet",
            "std::hash::RandomState",
        ] {
            assert!(
                types.contains("disallowed-types") && listed(types, path),
                "{path}"
            );
        }
        for path in [
            "std::thread::spawn",
            "std::thread::scope",
            "std::thread::Builder::spawn",
            "std::thread::Builder::spawn_scoped",
            "std::time::Instant::now",
            "std::time::SystemTime::now",
        ] {
            assert!(listed(methods, path), "{path}");
        }
        // Exemptions are per-site `#[expect]`s: no crate allows the lists
        // wholesale, so an ad-hoc spawn in the bench crate still fails.
        for manifest in [
            include_str!("../../../Cargo.toml"),
            include_str!("../../bench/Cargo.toml"),
        ] {
            assert!(!manifest.contains("disallowed_"));
        }
    }

    /// The locking contract (DESIGN §14) is the store's shard module plus
    /// clippy's ban on `Mutex::lock` everywhere else; this keeps the entry
    /// from leaving the list, or a crate from allowing it wholesale.
    #[test]
    fn committed_clippy_lists_hold_the_locking_contract() {
        let clippy = include_str!("../../../clippy.toml");
        let (_, methods) = clippy
            .split_once("disallowed-methods")
            .expect("clippy.toml has a disallowed-methods list");
        assert!(methods.contains("path = \"std::sync::Mutex::lock\""));
        let core = include_str!("../../core/Cargo.toml");
        assert!(!core.contains("disallowed_"));
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = parse("scan_roots = [\"a#b\"] # note\n").expect("ok");
        assert_eq!(cfg.scan_roots, vec!["a#b"]);
    }
}
