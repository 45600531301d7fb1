//! Minimal `--key value` argument parser (the allowed dependency set has no
//! clap).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand, positional operands, and
/// `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (first non-flag token).
    pub command: Option<String>,
    positionals: Vec<String>,
    options: BTreeMap<String, String>,
}

/// Error produced while parsing or extracting options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` appeared without a value.
    MissingValue(String),
    /// An option's value could not be parsed into the requested type.
    BadValue {
        /// Option name.
        key: String,
        /// Offending value.
        value: String,
        /// Expected type/domain.
        expected: &'static str,
    },
    /// A token was not understood.
    UnexpectedToken(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingValue(k) => write!(f, "option --{k} requires a value"),
            Self::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "option --{key}: '{value}' is not a valid {expected}")
            }
            Self::UnexpectedToken(t) => write!(f, "unexpected argument '{t}'"),
        }
    }
}

impl std::error::Error for ArgError {}

/// The CLI reports every error as its message.
impl From<ArgError> for String {
    fn from(e: ArgError) -> Self {
        e.to_string()
    }
}

impl Args {
    /// Parses `tokens` (without the program name). Non-flag tokens after
    /// the subcommand are collected as positionals; commands that take
    /// none reject them via [`expect_no_positionals`](Self::expect_no_positionals).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on dangling flags.
    pub fn parse<I, S>(tokens: I) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut args = Args::default();
        let mut iter = tokens.into_iter();
        while let Some(tok) = iter.next() {
            let tok = tok.as_ref();
            if let Some(key) = tok.strip_prefix("--") {
                let value = iter
                    .next()
                    .ok_or_else(|| ArgError::MissingValue(key.to_string()))?;
                args.options
                    .insert(key.to_string(), value.as_ref().to_string());
            } else if args.command.is_none() {
                args.command = Some(tok.to_string());
            } else {
                args.positionals.push(tok.to_string());
            }
        }
        Ok(args)
    }

    /// The `i`-th positional operand after the subcommand.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Errors on the first positional operand, for commands that take none.
    ///
    /// # Errors
    ///
    /// [`ArgError::UnexpectedToken`] naming the stray operand.
    pub fn expect_no_positionals(&self) -> Result<(), ArgError> {
        match self.positionals.first() {
            None => Ok(()),
            Some(p) => Err(ArgError::UnexpectedToken(p.clone())),
        }
    }

    /// Errors on positionals beyond the first `n`.
    ///
    /// # Errors
    ///
    /// [`ArgError::UnexpectedToken`] naming the first excess operand.
    pub fn expect_at_most_positionals(&self, n: usize) -> Result<(), ArgError> {
        match self.positionals.get(n) {
            None => Ok(()),
            Some(p) => Err(ArgError::UnexpectedToken(p.clone())),
        }
    }

    /// Raw string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Typed option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] if present but unparsable.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.clone(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// Whether any options were supplied that are not in `known` (typo
    /// guard). Returns the first unknown key.
    pub fn unknown_key(&self, known: &[&str]) -> Option<&str> {
        self.options
            .keys()
            .find(|k| !known.contains(&k.as_str()))
            .map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_and_options() {
        let a = Args::parse(["run", "--alpha", "0.1", "--rounds", "30"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.get("alpha"), Some("0.1"));
        assert_eq!(a.get_or("rounds", 0usize).unwrap(), 30);
        assert_eq!(a.get_or("missing", 7usize).unwrap(), 7);
    }

    #[test]
    fn rejects_dangling_flag() {
        let e = Args::parse(["run", "--alpha"]).unwrap_err();
        assert_eq!(e, ArgError::MissingValue("alpha".into()));
        assert!(!format!("{e}").is_empty());
    }

    #[test]
    fn collects_positionals_and_guards_commands_that_take_none() {
        let a = Args::parse(["grid", "scenarios/smoke.toml", "--workers", "2"]).unwrap();
        assert_eq!(a.positional(0), Some("scenarios/smoke.toml"));
        assert_eq!(a.positional(1), None);
        assert!(a.expect_at_most_positionals(1).is_ok());
        assert!(matches!(
            a.expect_no_positionals().unwrap_err(),
            ArgError::UnexpectedToken(_)
        ));
        let e = Args::parse(["run", "extra"])
            .unwrap()
            .expect_no_positionals()
            .unwrap_err();
        assert!(matches!(e, ArgError::UnexpectedToken(_)));
    }

    #[test]
    fn typed_errors_carry_context() {
        let a = Args::parse(["run", "--rounds", "banana"]).unwrap();
        let e = a.get_or("rounds", 1usize).unwrap_err();
        assert!(matches!(e, ArgError::BadValue { .. }));
    }

    #[test]
    fn unknown_key_guard() {
        let a = Args::parse(["run", "--alfa", "1"]).unwrap();
        assert_eq!(a.unknown_key(&["alpha"]), Some("alfa"));
        assert_eq!(a.unknown_key(&["alfa"]), None);
    }
}
