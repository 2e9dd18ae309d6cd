//! The one command-line parser behind every `dra` subcommand.
//!
//! A subcommand declares its operands and the flags it accepts; an
//! unknown or misspelled flag, a flag given twice, a valued flag
//! without its value, a value that does not parse, and a missing or
//! extra operand are all errors. Nothing passes silently.

use std::str::FromStr;

/// The flags and operands one subcommand accepts.
pub struct Grammar {
    /// Names of the positional operands, in order (all required).
    pub operands: &'static [&'static str],
    /// Flags that take no value.
    pub switches: &'static [&'static str],
    /// Flags that take one value.
    pub valued: &'static [&'static str],
}

/// Parsed arguments of one subcommand.
#[derive(Debug, Default)]
pub struct Args {
    operands: Vec<String>,
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
}

impl Args {
    /// Parse `raw` against `grammar`.
    pub fn parse(raw: &[String], grammar: &Grammar) -> Result<Args, String> {
        let mut args = Args::default();
        let mut raw = raw.iter();
        while let Some(arg) = raw.next() {
            if !arg.starts_with("--") {
                if args.operands.len() == grammar.operands.len() {
                    return Err(format!("unexpected argument {arg:?}"));
                }
                args.operands.push(arg.clone());
                continue;
            }
            if args.given(arg) {
                return Err(format!("{arg} given twice"));
            }
            if let Some(&flag) = grammar.switches.iter().find(|&&f| f == arg) {
                args.switches.push(flag);
            } else if let Some(&flag) = grammar.valued.iter().find(|&&f| f == arg) {
                match raw.next() {
                    Some(value) if !value.starts_with("--") => {
                        args.values.push((flag, value.clone()))
                    }
                    _ => return Err(format!("{flag} needs a value")),
                }
            } else {
                return Err(format!("unknown flag {arg:?}"));
            }
        }
        if let Some(missing) = grammar.operands.get(args.operands.len()) {
            return Err(format!("missing {missing}"));
        }
        Ok(args)
    }

    /// Operand `i` (present: [`Args::parse`] requires every operand).
    pub fn operand(&self, i: usize) -> &str {
        &self.operands[i]
    }

    /// Whether `flag` was given, with or without a value.
    pub fn given(&self, flag: &str) -> bool {
        self.switches.contains(&flag) || self.values.iter().any(|(f, _)| *f == flag)
    }

    /// Whether switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The value of `flag`, parsed, if given.
    pub fn value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}")))
            .transpose()
    }

    /// The value of `flag`, parsed, or `default` when not given.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        Ok(self.value(flag)?.unwrap_or(default))
    }

    /// An error naming the first of `flags` that was given.
    pub fn forbid(&self, flags: &[&str], why: &str) -> Result<(), String> {
        match flags.iter().find(|f| self.given(f)) {
            Some(flag) => Err(format!("{flag} {why}")),
            None => Ok(()),
        }
    }
}
