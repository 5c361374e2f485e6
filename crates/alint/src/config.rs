//! `alint.toml`: lint scopes and the grandfathered-violation allowlist.
//!
//! The allowlist is a *ratchet*: each entry budgets a number of existing
//! violations of one lint in one file. New violations push a file over its
//! budget and fail the check; paying debt down below the budget produces a
//! nagging note until the entry is tightened. This keeps the list honest in
//! both directions without storing brittle line numbers.
//!
//! The parser below handles exactly the TOML subset the config uses —
//! `[table]` headers, `[[array-of-table]]` headers, `key = "string"`,
//! `key = integer`, and `key = ["a", "b"]` single-line string arrays —
//! because no TOML crate is available offline.

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
    /// L6 (determinism safety): crate roots whose `src/` trees are bound by
    /// the bitwise-reproducibility contract. An empty list disables L6.
    pub determinism_crates: Vec<String>,
    /// L6: files (or path prefixes) whose thread fan-out is blessed — the
    /// audited pool modules with ordered reductions.
    pub spawn_approved: Vec<String>,
    /// L6: files or path prefixes allowed to read host wall-clock
    /// (bench/runner diagnostics that never feed priced results).
    pub wall_clock_approved: Vec<String>,
    /// L6: identifiers (ordered container types, sort methods) whose
    /// presence near a hash-container iteration marks the path as
    /// order-stable and suppresses the finding.
    pub ordered_containers: Vec<String>,
    /// L7 (lock discipline): lock receiver identifier → lock class,
    /// written `"warm:warm"`. Every `.lock()` receiver in scanned code
    /// must map to a class here.
    pub lock_classes: Vec<(String, String)>,
    /// L7: total acquisition order over lock classes, lowest first —
    /// acquiring a lower class while a higher one is held is an
    /// inversion. An empty list leaves every class unordered, which is
    /// itself a violation at each acquisition site (the probe: deleting
    /// the order table must surface raw findings, not silence).
    pub lock_order: Vec<String>,
    /// L7: identifiers whose calls are expensive by fiat (`fit`, `solve`,
    /// file I/O, `sleep`, …). The call-graph layer propagates these:
    /// any function whose call closure reaches one is expensive, and
    /// calling it under a live lock guard is a violation. Emptying both
    /// this and `lock_classes`/`lock_order` disables L7.
    pub expensive_idents: Vec<String>,
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
    take_list("determinism_crates", &mut config.determinism_crates)?;
    take_list("spawn_approved", &mut config.spawn_approved)?;
    take_list("wall_clock_approved", &mut config.wall_clock_approved)?;
    take_list("ordered_containers", &mut config.ordered_containers)?;
    take_list("lock_order", &mut config.lock_order)?;
    take_list("expensive_idents", &mut config.expensive_idents)?;
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
    take_pair_list("lock_classes", &mut config.lock_classes)?;
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
lint = "L6"
count = 1
"#,
        )
        .expect("parse");
        assert_eq!(cfg.typed_error_crates, vec!["crates/a", "crates/b"]);
        assert_eq!(cfg.scan_roots, vec!["crates"]);
        assert_eq!(cfg.allowances.len(), 2);
        assert_eq!(cfg.allowances[0].count, 3);
        assert_eq!(cfg.allowances[0].reason, "grandfathered");
        assert_eq!(cfg.allowances[1].lint, "L6");
    }

    #[test]
    fn missing_allow_fields_are_errors() {
        let err = parse("[[allow]]\npath = \"x\"\nlint = \"L3\"\n").unwrap_err();
        assert!(err.message.contains("count"), "{err}");
    }

    #[test]
    fn unknown_keys_are_errors() {
        assert!(parse("wibble = 3\n").is_err());
        // The keys of the passes retired to clippy are unknown now.
        for key in ["lib_crates", "hot_paths", "float_cmp_approved"] {
            assert!(parse(&format!("{key} = []\n")).is_err(), "{key}");
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

    #[test]
    fn lock_tables_parse_and_are_committed() {
        let cfg = parse(
            "[locks]\nlock_classes = [\"cache:cache\", \"slab:slab\"]\n\
             lock_order = [\"cache\", \"slab\"]\nexpensive_idents = [\"churn\"]\n",
        )
        .expect("parse");
        assert_eq!(
            cfg.lock_classes,
            vec![
                ("cache".to_string(), "cache".to_string()),
                ("slab".to_string(), "slab".to_string())
            ]
        );
        assert_eq!(cfg.lock_order, vec!["cache", "slab"]);
        assert_eq!(cfg.expensive_idents, vec!["churn"]);
        // The committed tables encode the store's documented contract:
        // warm below shard, and the paper's hot verbs in the expensive set.
        let d = committed();
        assert_eq!(d.lock_order, vec!["warm", "shard"]);
        assert!(d
            .lock_classes
            .iter()
            .any(|(r, c)| r == "shard" && c == "shard"));
        for ident in ["fit", "step", "solve", "sleep", "read_to_string"] {
            assert!(d.expensive_idents.contains(&ident.to_string()), "{ident}");
        }
    }

    #[test]
    fn emptied_lock_order_parses_to_empty() {
        // The ratchet probe empties the order table and keeps the classes.
        let cfg =
            parse("[locks]\nlock_classes = [\"shard:shard\"]\nlock_order = []\n").expect("parse");
        assert!(cfg.lock_order.is_empty());
        assert!(!cfg.lock_classes.is_empty());
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
    fn determinism_tables_parse_and_are_committed() {
        let cfg = parse(
            "[determinism]\ndeterminism_crates = [\"crates/x\"]\n\
             spawn_approved = [\"crates/x/src/pool.rs\"]\n\
             wall_clock_approved = [\"crates/y\"]\n\
             ordered_containers = [\"IndexMap\"]\n",
        )
        .expect("parse");
        assert_eq!(cfg.determinism_crates, vec!["crates/x"]);
        assert_eq!(cfg.spawn_approved, vec!["crates/x/src/pool.rs"]);
        assert_eq!(cfg.wall_clock_approved, vec!["crates/y"]);
        assert_eq!(cfg.ordered_containers, vec!["IndexMap"]);
        // Committed: the one blessed pool module is the audited fan-out,
        // and bench may read wall-clock for BENCH notes.
        let d = committed();
        assert_eq!(d.spawn_approved, vec!["crates/parallel/src/pool.rs"]);
        assert!(d.wall_clock_approved.contains(&"crates/bench".to_string()));
        assert!(d.determinism_crates.contains(&"crates/amr".to_string()));
        assert!(d
            .determinism_crates
            .contains(&"crates/parallel".to_string()));
        assert!(d.ordered_containers.contains(&"BTreeMap".to_string()));
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
