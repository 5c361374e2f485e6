//! `alint.toml`: lint scopes and the grandfathered-violation allowlist.
//!
//! The allowlist is a *ratchet*: each entry budgets a number of existing
//! violations of one lint in one file. New violations push a file over its
//! budget and fail the check; paying debt down below the budget produces a
//! nagging note until the entry is tightened. This keeps the list honest in
//! both directions without storing brittle line numbers.
//!
//! The parser below handles exactly the TOML subset the config uses —
//! the `[scope]` and `[units]` headers, `[[allow]]` entries,
//! `key = "string"`, `key = integer`, and `key = ["a", "b"]` single-line
//! string arrays — because no TOML crate is available offline.

use std::collections::BTreeMap;
use std::path::Path;

/// One grandfathered budget: up to `count` diagnostics of `lint` in `path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allowance {
    pub path: String,
    pub lint: String,
    pub count: usize,
    pub reason: String,
}

/// Parsed configuration. `alint.toml` is the only source of the tables:
/// the default is all-empty, and a key the file omits stays empty.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Crate roots whose public `Result` functions L3 (typed errors) covers.
    pub typed_error_crates: Vec<String>,
    /// Directories (workspace-relative) scanned for sources.
    pub scan_roots: Vec<String>,
    /// L5 (unit safety): identifier suffix → unit, written `"_us:microseconds"`.
    pub unit_suffixes: Vec<(String, String)>,
    /// L5: quantity type name → unit, written `"Micros:microseconds"`.
    pub unit_types: Vec<(String, String)>,
    /// L5: identifiers that convert between units; their presence next to a
    /// mixed-unit operator marks the expression as an intentional conversion.
    pub unit_conversions: Vec<String>,
    pub allowances: Vec<Allowance>,
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

/// `key = value` pairs of one table, each with its source line.
type KeyedValues = BTreeMap<String, (Value, usize)>;

/// The section headers the file may use. They are organizational: every
/// key lands in one namespace. Any other header — such as the `[locks]` or
/// `[determinism]` tables of retired passes — is an error.
const TABLES: [&str; 2] = ["[scope]", "[units]"];

#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    Str(String),
    Int(usize),
    StrArray(Vec<String>),
}

fn parse_value(raw: &str, line: usize) -> Result<Value, ConfigError> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(end) = rest.find('"') else {
            return Err(ConfigError {
                line,
                message: "unterminated string".into(),
            });
        };
        return Ok(Value::Str(rest[..end].to_string()));
    }
    if let Some(inner) = raw.strip_prefix('[') {
        let Some(inner) = inner.strip_suffix(']') else {
            return Err(ConfigError {
                line,
                message: "arrays must be closed on the same line".into(),
            });
        };
        let mut items = Vec::new();
        for piece in inner.split(',') {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            match parse_value(piece, line)? {
                Value::Str(s) => items.push(s),
                _ => {
                    return Err(ConfigError {
                        line,
                        message: "only string arrays are supported".into(),
                    })
                }
            }
        }
        return Ok(Value::StrArray(items));
    }
    raw.parse::<usize>()
        .map(Value::Int)
        .map_err(|_| ConfigError {
            line,
            message: format!("expected string, integer, or string array, got `{raw}`"),
        })
}

/// Parse the TOML subset described in the module docs.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    let mut config = Config::default();
    // Tables other than [[allow]] collect into one namespace; the file's
    // section headers are organizational.
    let mut scalar_keys: KeyedValues = BTreeMap::new();
    let mut current_allow: Option<KeyedValues> = None;
    let mut finished_allows: Vec<(KeyedValues, usize)> = Vec::new();
    let mut allow_start = 0usize;

    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(done) = current_allow.take() {
                finished_allows.push((done, allow_start));
            }
            current_allow = Some(BTreeMap::new());
            allow_start = line_no;
            continue;
        }
        if line.starts_with("[[") {
            return Err(ConfigError {
                line: line_no,
                message: format!("unknown array-of-tables `{line}`"),
            });
        }
        if line.starts_with('[') {
            if !TABLES.contains(&line) {
                return Err(ConfigError {
                    line: line_no,
                    message: format!("unknown table `{line}`"),
                });
            }
            // Section header: close any open [[allow]] entry.
            if let Some(done) = current_allow.take() {
                finished_allows.push((done, allow_start));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ConfigError {
                line: line_no,
                message: format!("expected `key = value`, got `{line}`"),
            });
        };
        let key = key.trim().to_string();
        let value = parse_value(value, line_no)?;
        match &mut current_allow {
            Some(entry) => {
                entry.insert(key, (value, line_no));
            }
            None => {
                scalar_keys.insert(key, (value, line_no));
            }
        }
    }
    if let Some(done) = current_allow.take() {
        finished_allows.push((done, allow_start));
    }

    let mut take_list = |name: &str, target: &mut Vec<String>| -> Result<(), ConfigError> {
        if let Some((value, line)) = scalar_keys.remove(name) {
            match value {
                Value::StrArray(items) => *target = items,
                _ => {
                    return Err(ConfigError {
                        line,
                        message: format!("`{name}` must be a string array"),
                    })
                }
            }
        }
        Ok(())
    };
    take_list("typed_error_crates", &mut config.typed_error_crates)?;
    take_list("scan_roots", &mut config.scan_roots)?;
    take_list("unit_conversions", &mut config.unit_conversions)?;
    let mut take_pair_list =
        |name: &str, target: &mut Vec<(String, String)>| -> Result<(), ConfigError> {
            if let Some((value, line)) = scalar_keys.remove(name) {
                let Value::StrArray(items) = value else {
                    return Err(ConfigError {
                        line,
                        message: format!("`{name}` must be a string array"),
                    });
                };
                let mut pairs = Vec::new();
                for item in items {
                    let Some((key, unit)) = item.split_once(':') else {
                        return Err(ConfigError {
                            line,
                            message: format!(
                                "`{name}` entries must look like \"name:unit\", got `{item}`"
                            ),
                        });
                    };
                    pairs.push((key.trim().to_string(), unit.trim().to_string()));
                }
                *target = pairs;
            }
            Ok(())
        };
    take_pair_list("unit_suffixes", &mut config.unit_suffixes)?;
    take_pair_list("unit_types", &mut config.unit_types)?;
    if let Some((key, (_, line))) = scalar_keys.into_iter().next() {
        return Err(ConfigError {
            line,
            message: format!("unknown key `{key}`"),
        });
    }

    for (entry, start_line) in finished_allows {
        let mut path = None;
        let mut lint = None;
        let mut count = None;
        let mut reason = String::new();
        for (key, (value, line)) in entry {
            match (key.as_str(), value) {
                ("path", Value::Str(s)) => path = Some(s),
                ("lint", Value::Str(s)) => lint = Some(s),
                ("count", Value::Int(n)) => count = Some(n),
                ("reason", Value::Str(s)) => reason = s,
                (other, _) => {
                    return Err(ConfigError {
                        line,
                        message: format!("unknown or mistyped [[allow]] key `{other}`"),
                    })
                }
            }
        }
        let missing = |what: &str| ConfigError {
            line: start_line,
            message: format!("[[allow]] entry is missing `{what}`"),
        };
        config.allowances.push(Allowance {
            path: path.ok_or_else(|| missing("path"))?,
            lint: lint.ok_or_else(|| missing("lint"))?,
            count: count.ok_or_else(|| missing("count"))?,
            reason,
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
    fn parses_scopes_and_allowances() {
        let cfg = parse(
            r#"
# comment
[scope]
typed_error_crates = ["crates/a", "crates/b"]
scan_roots = ["crates"]

[[allow]]
path = "crates/a/src/x.rs"   # trailing comment
lint = "L3"
count = 3
reason = "grandfathered"

[[allow]]
path = "crates/b/src/y.rs"
lint = "L5"
count = 1
"#,
        )
        .expect("parse");
        assert_eq!(cfg.typed_error_crates, vec!["crates/a", "crates/b"]);
        assert_eq!(cfg.scan_roots, vec!["crates"]);
        assert_eq!(cfg.allowances.len(), 2);
        assert_eq!(cfg.allowances[0].count, 3);
        assert_eq!(cfg.allowances[0].reason, "grandfathered");
        assert_eq!(cfg.allowances[1].lint, "L5");
    }

    #[test]
    fn missing_allow_fields_are_errors() {
        let err = parse("[[allow]]\npath = \"x\"\nlint = \"L3\"\n").unwrap_err();
        assert!(err.message.contains("count"), "{err}");
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
        ] {
            assert!(parse(&format!("{key} = []\n")).is_err(), "{key}");
        }
        for table in ["[locks]", "[determinism]"] {
            let err = parse(&format!("{table}\n")).unwrap_err();
            assert!(err.message.contains("unknown table"), "{err}");
        }
        assert!(parse("[[allow]]\nwibble = \"x\"\n").is_err());
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
    /// clippy's ban on `Mutex::lock` everywhere else; this keeps either
    /// entry from leaving the list, or a crate from allowing it wholesale.
    #[test]
    fn committed_clippy_lists_hold_the_locking_contract() {
        let clippy = include_str!("../../../clippy.toml");
        let (_, methods) = clippy
            .split_once("disallowed-methods")
            .expect("clippy.toml has a disallowed-methods list");
        for path in ["parking_lot::Mutex::lock", "std::sync::Mutex::lock"] {
            assert!(methods.contains(&format!("path = \"{path}\"")), "{path}");
        }
        let core = include_str!("../../core/Cargo.toml");
        assert!(!core.contains("disallowed_"));
    }

    #[test]
    fn unit_tables_parse_and_are_committed() {
        let cfg = parse(
            "[units]\nunit_suffixes = [\"_ticks:ticks\"]\nunit_types = [\"Ticks:ticks\"]\n\
             unit_conversions = [\"to_ticks\"]\n",
        )
        .expect("parse");
        assert_eq!(
            cfg.unit_suffixes,
            vec![("_ticks".to_string(), "ticks".to_string())]
        );
        assert_eq!(
            cfg.unit_types,
            vec![("Ticks".to_string(), "ticks".to_string())]
        );
        assert_eq!(cfg.unit_conversions, vec!["to_ticks"]);
        // The committed file ships the repo's quantity tables; `value` (the
        // raw-f64 escape hatch) must never count as a conversion.
        let d = committed();
        assert!(d
            .unit_suffixes
            .iter()
            .any(|(s, u)| s == "_us" && u == "microseconds"));
        assert!(d.unit_types.iter().any(|(t, _)| t == "LogMegabytes"));
        assert!(!d.unit_conversions.contains(&"value".to_string()));
    }

    #[test]
    fn malformed_unit_pairs_are_errors() {
        let err = parse("unit_suffixes = [\"_us\"]\n").unwrap_err();
        assert!(err.message.contains("name:unit"), "{err}");
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = parse("[[allow]]\npath = \"a#b.rs\"\nlint = \"L2\"\ncount = 1\n").expect("ok");
        assert_eq!(cfg.allowances[0].path, "a#b.rs");
    }
}
