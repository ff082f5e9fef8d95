//! `--flag value` argument parsing for the subcommands.

use std::collections::HashMap;
use std::path::PathBuf;
use std::str::FromStr;

/// Parsed `--flag value` pairs (`-k` is accepted as `--k`).
pub struct Args(HashMap<String, String>);

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .or_else(|| flag.strip_prefix('-'))
                .ok_or_else(|| format!("expected a flag, got {flag:?}"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    pub fn str(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    pub fn path(&self, name: &str) -> Result<PathBuf, String> {
        self.str(name).map(PathBuf::from)
    }

    pub fn num<T: FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.str(name)?;
        raw.parse()
            .map_err(|_| format!("--{name}: cannot parse {raw:?}"))
    }

    pub fn num_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.contains_key(name) {
            true => self.num(name),
            false => Ok(default),
        }
    }

    pub fn flag(&self, name: &str) -> Result<bool, String> {
        Ok(self.num_or::<u8>(name, 0)? != 0)
    }
}
