//! Minimal TOML subset reader (this workspace is dependency-free, so the
//! scenario schema carries its own parser, in the same spirit as the
//! hand-rolled JSON codec in `collapois-runtime::json`).
//!
//! Supported surface — exactly what scenario files need:
//!
//! * `[a.b]` table headers and bare dotted keys (`fault.dropout = 0.2`);
//! * scalars: basic strings (`"…"` with the JSON escape set), integers,
//!   floats, booleans;
//! * single-line arrays of scalars;
//! * `#` comments and blank lines.
//!
//! Not supported (rejected with a line-numbered error, never silently
//! misread): multi-line strings/arrays, inline tables, arrays of tables,
//! dates, `+`/underscore digit separators, non-finite floats.

/// One TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// Basic string.
    Str(String),
    /// Integer (TOML integers are i64).
    Int(i64),
    /// Finite float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Single-line array of scalars.
    Array(Vec<TomlValue>),
    /// Nested table.
    Table(TomlTable),
}

impl TomlValue {
    /// Human-readable type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Self::Str(_) => "string",
            Self::Int(_) => "integer",
            Self::Float(_) => "float",
            Self::Bool(_) => "boolean",
            Self::Array(_) => "array",
            Self::Table(_) => "table",
        }
    }
}

/// An ordered table: entries keep file order, which sets the order of a
/// grid's axes and variants.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TomlTable {
    entries: Vec<(String, TomlValue)>,
}

impl TomlTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[(String, TomlValue)] {
        &self.entries
    }

    /// Looks up a direct child.
    pub fn get(&self, key: &str) -> Option<&TomlValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Looks up a nested value by dotted path.
    pub fn get_path(&self, path: &str) -> Option<&TomlValue> {
        let mut current = self;
        let mut segments = path.split('.').peekable();
        while let Some(seg) = segments.next() {
            let v = current.get(seg)?;
            if segments.peek().is_none() {
                return Some(v);
            }
            match v {
                TomlValue::Table(t) => current = t,
                _ => return None,
            }
        }
        None
    }

    /// Inserts a direct child, rejecting duplicates.
    pub fn insert(&mut self, key: &str, value: TomlValue) -> Result<(), String> {
        if self.get(key).is_some() {
            return Err(format!("duplicate key '{key}'"));
        }
        self.entries.push((key.to_string(), value));
        Ok(())
    }

    /// Returns the subtable at `key`, creating an empty one if absent.
    /// Errors if `key` already holds a non-table value.
    fn subtable_mut(&mut self, key: &str) -> Result<&mut TomlTable, String> {
        if self.get(key).is_none() {
            self.entries
                .push((key.to_string(), TomlValue::Table(TomlTable::new())));
        }
        match self
            .entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
        {
            Some(TomlValue::Table(t)) => Ok(t),
            _ => Err(format!("key '{key}' is not a table")),
        }
    }

    /// Inserts a value at a dotted path, creating intermediate tables.
    pub fn insert_path(&mut self, path: &[&str], value: TomlValue) -> Result<(), String> {
        match path {
            [] => Err("empty key".to_string()),
            [last] => self.insert(last, value),
            [head, rest @ ..] => self.subtable_mut(head)?.insert_path(rest, value),
        }
    }
}

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line of the offending text (0 for whole-document errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TomlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for TomlError {}

fn terr(line: usize, message: impl Into<String>) -> TomlError {
    TomlError {
        line,
        message: message.into(),
    }
}

/// Parses a TOML document into its root table.
///
/// # Errors
///
/// Returns a line-numbered [`TomlError`] on anything outside the supported
/// subset: malformed headers/keys/values, duplicate keys, duplicate table
/// headers, multi-line constructs.
pub fn parse(text: &str) -> Result<TomlTable, TomlError> {
    let mut root = TomlTable::new();
    let mut current_path: Vec<String> = Vec::new();
    let mut seen_headers: Vec<String> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            if header.starts_with('[') {
                return Err(terr(lineno, "arrays of tables ([[…]]) are not supported"));
            }
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| terr(lineno, "unterminated table header"))?;
            let path = split_key(header).map_err(|m| terr(lineno, m))?;
            let joined = path.join(".");
            if seen_headers.contains(&joined) {
                return Err(terr(lineno, format!("duplicate table header [{joined}]")));
            }
            seen_headers.push(joined);
            // Materialize the table so empty tables survive round-trips.
            let mut t = &mut root;
            for seg in &path {
                t = t.subtable_mut(seg).map_err(|m| terr(lineno, m))?;
            }
            current_path = path;
            continue;
        }
        let eq = find_unquoted(&line, '=')
            .ok_or_else(|| terr(lineno, "expected 'key = value' or '[table]'"))?;
        let key_part = line[..eq].trim();
        let value_part = line[eq + 1..].trim();
        if value_part.is_empty() {
            return Err(terr(lineno, format!("key '{key_part}' has no value")));
        }
        let key_path = split_key(key_part).map_err(|m| terr(lineno, m))?;
        let value = parse_value(value_part).map_err(|m| terr(lineno, m))?;
        let mut table = &mut root;
        for seg in &current_path {
            table = table.subtable_mut(seg).map_err(|m| terr(lineno, m))?;
        }
        let segs: Vec<&str> = key_path.iter().map(String::as_str).collect();
        table
            .insert_path(&segs, value)
            .map_err(|m| terr(lineno, m))?;
    }
    Ok(root)
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// Index of the first `c` outside quoted strings.
fn find_unquoted(line: &str, target: char) -> Option<usize> {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            c if c == target && !in_str => return Some(i),
            _ => {}
        }
        escaped = false;
    }
    None
}

/// Splits a bare dotted key into validated segments.
fn split_key(key: &str) -> Result<Vec<String>, String> {
    let key = key.trim();
    if key.is_empty() {
        return Err("empty key".to_string());
    }
    key.split('.')
        .map(|seg| {
            let seg = seg.trim();
            if seg.is_empty() {
                return Err(format!("empty segment in key '{key}'"));
            }
            if !seg
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            {
                return Err(format!("key segment '{seg}' must be bare ([A-Za-z0-9_-])"));
            }
            Ok(seg.to_string())
        })
        .collect()
}

/// Parses one value as it would appear right of a `key =`: a scalar or a
/// single-line array of scalars.
///
/// # Errors
///
/// A message naming the text when it is not a value of the subset (a bare
/// word such as `krum` is not: strings are quoted).
pub fn parse_value(text: &str) -> Result<TomlValue, String> {
    let text = text.trim();
    if let Some(rest) = text.strip_prefix('[') {
        let inner = rest.strip_suffix(']').ok_or_else(|| {
            "unterminated array (multi-line arrays are not supported)".to_string()
        })?;
        let mut items = Vec::new();
        for piece in split_array_items(inner)? {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            let v = parse_value(piece)?;
            if matches!(v, TomlValue::Array(_)) {
                return Err("nested arrays are not supported".to_string());
            }
            items.push(v);
        }
        return Ok(TomlValue::Array(items));
    }
    if text.starts_with('"') {
        return parse_string(text).map(TomlValue::Str);
    }
    match text {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    if text.contains(['.', 'e', 'E']) {
        let f: f64 = text
            .parse()
            .map_err(|_| format!("'{text}' is not a valid value"))?;
        if !f.is_finite() {
            return Err(format!("float '{text}' must be finite"));
        }
        return Ok(TomlValue::Float(f));
    }
    text.parse::<i64>()
        .map(TomlValue::Int)
        .map_err(|_| format!("'{text}' is not a valid value"))
}

/// Splits array innards on commas outside strings.
fn split_array_items(inner: &str) -> Result<Vec<String>, String> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in inner.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            ',' if !in_str => {
                items.push(inner[start..i].to_string());
                start = i + 1;
            }
            '[' | ']' if !in_str => return Err("nested arrays are not supported".to_string()),
            _ => {}
        }
        escaped = false;
    }
    if in_str {
        return Err("unterminated string in array".to_string());
    }
    items.push(inner[start..].to_string());
    Ok(items)
}

fn parse_string(text: &str) -> Result<String, String> {
    let bytes = text.as_bytes();
    if bytes.len() < 2 || bytes[0] != b'"' || bytes[bytes.len() - 1] != b'"' {
        return Err(format!("'{text}' is not a terminated string"));
    }
    let inner = &text[1..text.len() - 1];
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '"' {
            return Err("unescaped quote inside string".to_string());
        }
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some(c) => return Err(format!("unsupported escape \\{c}")),
            None => return Err("dangling backslash in string".to_string()),
        }
    }
    Ok(out)
}

/// Prints a float so it parses back to the same bits and always reads as a
/// float (integral values keep a `.0`).
pub fn fmt_float(v: f64) -> String {
    let mut s = format!("{v}");
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        s.push_str(".0");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_dotted_keys() {
        let doc = r#"
# grid header
schema_version = 1
name = "smoke" # trailing comment

[base]
alpha = 0.1
clients = 12
sim_enabled = false
fault.dropout = 0.25

[axes]
attack = ["collapois", "dpois"]
"#;
        let t = parse(doc).unwrap();
        assert_eq!(t.get("schema_version"), Some(&TomlValue::Int(1)));
        assert_eq!(t.get("name"), Some(&TomlValue::Str("smoke".into())));
        assert_eq!(t.get_path("base.alpha"), Some(&TomlValue::Float(0.1)));
        assert_eq!(t.get_path("base.clients"), Some(&TomlValue::Int(12)));
        assert_eq!(
            t.get_path("base.fault.dropout"),
            Some(&TomlValue::Float(0.25))
        );
        match t.get_path("axes.attack") {
            Some(TomlValue::Array(items)) => assert_eq!(items.len(), 2),
            other => panic!("bad axes.attack: {other:?}"),
        }
    }

    #[test]
    fn a_hash_inside_a_string_is_not_a_comment() {
        let t = parse("[a.inner]\ns = \"hi # not a comment\" # a comment\n").unwrap();
        assert_eq!(
            t.get_path("a.inner.s"),
            Some(&TomlValue::Str("hi # not a comment".into()))
        );
    }

    #[test]
    fn strings_unescape() {
        let t = parse(r#"s = "a\"b\\c\nd\te # f""#).unwrap();
        assert_eq!(
            t.get("s"),
            Some(&TomlValue::Str("a\"b\\c\nd\te # f".into()))
        );
    }

    #[test]
    fn empty_tables_parse() {
        let doc = "[variants.plain]\n\n[variants.faulted]\nx = 1\n";
        let t = parse(doc).unwrap();
        assert_eq!(
            t.get_path("variants.plain"),
            Some(&TomlValue::Table(TomlTable::new()))
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for (doc, needle) in [
            ("k = 1\nk = 2", "duplicate key"),
            ("[t]\nx = 1\n[t]", "duplicate table"),
            ("[t\nx = 1", "unterminated table header"),
            ("x 1", "expected 'key = value'"),
            ("x =", "has no value"),
            ("x = [1, [2]]", "nested arrays"),
            ("x = \"abc", "not a terminated string"),
            ("x = zebra", "not a valid value"),
            ("x = inf", "not a valid value"),
            ("[[cells]]", "arrays of tables"),
            ("a..b = 1", "empty segment"),
            ("weird key = 1", "must be bare"),
            ("x = nan", "not a valid value"),
        ] {
            let e = parse(doc).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "doc {doc:?}: expected {needle:?} in {e}"
            );
        }
    }

    /// Every way of defining the same name twice must surface a typed
    /// [`TomlError`] — never silently last-wins (a grid cell whose axis
    /// value was quietly overwritten would run the wrong scenario).
    #[test]
    fn duplicate_definitions_are_typed_errors_not_last_wins() {
        for (doc, needle) in [
            // Scalar redefined in the same table.
            ("k = 1\nk = 2", "duplicate key 'k'"),
            // Scalar redefined inside a named table.
            ("[t]\na = 1\na = 2", "duplicate key 'a'"),
            // Table header repeated verbatim.
            ("[t]\nx = 1\n[t]\ny = 2", "duplicate table header [t]"),
            // Header opened over an existing scalar.
            ("x = 1\n[x]\ny = 2", "key 'x' is not a table"),
            // Dotted key extending through an existing scalar.
            ("a.b = 1\na.b.c = 2", "key 'b' is not a table"),
            // Dotted header descending through an existing scalar.
            ("[t]\nk = 1\n[t.k]\nv = 2", "key 'k' is not a table"),
            // Key colliding with an earlier-declared subtable.
            ("[a.b]\nv = 1\n[a]\nb = 2", "duplicate key 'b'"),
            // Dotted key colliding with an explicit header's table entry.
            ("[a]\nb.c = 1\n[a.b]\nc = 2", "duplicate key 'c'"),
        ] {
            let e = parse(doc).unwrap_err();
            assert!(e.line > 0, "doc {doc:?}: error must carry a line number");
            assert!(
                e.to_string().contains(needle),
                "doc {doc:?}: expected {needle:?} in {e}"
            );
        }
        // The accepted near-misses parse to distinct entries, not overwrites.
        let t = parse("[a]\nb = 1\n[c]\nb = 2\n").unwrap();
        assert_eq!(t.get_path("a.b"), Some(&TomlValue::Int(1)));
        assert_eq!(t.get_path("c.b"), Some(&TomlValue::Int(2)));
    }

    #[test]
    fn floats_and_ints_stay_distinct() {
        let t = parse("a = 1\nb = 1.0\nc = 1e3\n").unwrap();
        assert_eq!(t.get("a"), Some(&TomlValue::Int(1)));
        assert_eq!(t.get("b"), Some(&TomlValue::Float(1.0)));
        assert_eq!(t.get("c"), Some(&TomlValue::Float(1000.0)));
        // Canonical form prints floats as floats.
        assert_eq!(fmt_float(1.0), "1.0");
        assert_eq!(fmt_float(0.25), "0.25");
    }
}
