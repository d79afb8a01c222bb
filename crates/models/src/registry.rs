//! The model registry: one named-lookup API for the scenario zoo.
//!
//! A [`Registry`] maps names to [`ModelSpec`]s and materializes them
//! lazily — a lookup builds the model at most once (per registry) and
//! hands out a shared [`Arc<ResolvedModel>`]. Materialization always
//! goes through [`ModelSpec::materialize`], so every model in the
//! workspace is admitted against a [`RunBudget`] before anything is
//! enumerated.
//!
//! Naming convention: **the canonical spec string is the name**. Builtin
//! entries are registered under their canonical `Display` form
//! (`stars{n=5,s=2}`, `random{n=4,p=0.35,seed=7,count=16}`, …), and
//! [`Registry::resolve`] falls back to *parsing* an unregistered name as
//! a spec — so any spec string is a valid model name everywhere a
//! registry name is accepted (`experiments --models`, JSON labels,
//! reproduction recipes).
//!
//! [`builtin`] is the shared, process-wide registry of 100+ models
//! emitted by [`crate::modelgen`]; [`Registry::select`] picks subsets by
//! glob (`stars*,ring*`).

use crate::error::ModelError;
use crate::spec::{ModelSpec, ResolvedModel};
use ksa_graphs::budget::RunBudget;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A named collection of [`ModelSpec`]s with lazy, budget-guarded
/// materialization.
///
/// # Examples
///
/// ```
/// use ksa_models::registry;
///
/// let reg = registry::builtin();
/// let model = reg.resolve("stars{n=5,s=2}", 1_000_000u128).unwrap();
/// assert_eq!(model.as_closed_above().unwrap().generators().len(), 10);
/// // Glob selection over the builtin zoo:
/// assert!(!reg.select("ring*").is_empty());
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    specs: BTreeMap<String, ModelSpec>,
    cache: Mutex<BTreeMap<String, Arc<ResolvedModel>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers `spec` under its canonical name and returns that name.
    /// Re-inserting the same spec is a no-op.
    pub fn insert(&mut self, spec: ModelSpec) -> String {
        let name = spec.name();
        self.specs.insert(name.clone(), spec);
        name
    }

    /// Number of registered entries.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the registry has no entries.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// All registered names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.specs.keys().map(String::as_str)
    }

    /// The spec registered under `name`, if any (no parse fallback).
    pub fn spec(&self, name: &str) -> Option<&ModelSpec> {
        self.specs.get(name)
    }

    /// The registered names matching a pattern list, sorted.
    ///
    /// `pattern` is a comma-separated list of globs (`*` matches any run
    /// of characters, `?` one character); commas nested inside balanced
    /// `{…}` belong to the pattern, so an exact canonical name like
    /// `stars{n=3,s=1}` is itself a valid pattern.
    pub fn select(&self, pattern: &str) -> Vec<&str> {
        let pats = split_pattern_list(pattern);
        self.names()
            .filter(|name| pats.iter().any(|p| glob_match(p, name)))
            .collect()
    }

    /// Looks up `name` and materializes it under `budget` (cached after
    /// the first success). Unregistered names are parsed as specs, so
    /// every canonical spec string resolves.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownModel`] if the name is neither registered nor
    /// parseable; any [`ModelSpec::materialize`] error otherwise.
    pub fn resolve(
        &self,
        name: &str,
        budget: impl Into<RunBudget>,
    ) -> Result<Arc<ResolvedModel>, ModelError> {
        match self.specs.get(name) {
            Some(spec) => self.materialize_cached(name, spec, budget.into()),
            None => {
                let spec: ModelSpec = name.parse().map_err(|_| ModelError::UnknownModel {
                    name: name.to_string(),
                })?;
                self.resolve_spec(&spec, budget)
            }
        }
    }

    /// Materializes a spec through this registry's cache (keyed by the
    /// canonical name), without requiring it to be registered.
    ///
    /// # Errors
    ///
    /// Any [`ModelSpec::materialize`] error.
    pub fn resolve_spec(
        &self,
        spec: &ModelSpec,
        budget: impl Into<RunBudget>,
    ) -> Result<Arc<ResolvedModel>, ModelError> {
        self.materialize_cached(&spec.name(), spec, budget.into())
    }

    /// [`resolve`](Self::resolve), then an owned
    /// [`ClosedAboveModel`](crate::ClosedAboveModel) —
    /// the common call-site shape (experiment tables, examples) for
    /// models that must expose generators.
    ///
    /// # Errors
    ///
    /// As [`resolve`](Self::resolve); additionally [`ModelError::Spec`]
    /// when the model is explicit rather than closed-above.
    pub fn resolve_closed_above(
        &self,
        name: &str,
        budget: impl Into<RunBudget>,
    ) -> Result<crate::ClosedAboveModel, ModelError> {
        self.resolve(name, budget)?
            .as_closed_above()
            .cloned()
            .ok_or_else(|| ModelError::Spec {
                message: format!("{name}: not a closed-above model"),
            })
    }

    fn materialize_cached(
        &self,
        key: &str,
        spec: &ModelSpec,
        budget: RunBudget,
    ) -> Result<Arc<ResolvedModel>, ModelError> {
        ksa_obs::count(ksa_obs::Counter::RegistryLookups, 1);
        if let Some(hit) = self.cache.lock().expect("registry cache").get(key) {
            return Ok(Arc::clone(hit));
        }
        // Build outside the lock: materialization can be slow, and an
        // admission error must not poison the cache. Two identical
        // concurrent misses both build and one wins — benign, the results
        // are deterministic and equal. Only the unique insert counts as a
        // materialization (deterministic: one per distinct key); the
        // loser's redundant build is a perf-tier event, since whether the
        // race happens at all depends on scheduling.
        let built = Arc::new(spec.materialize(budget)?);
        use std::collections::btree_map::Entry;
        let mut cache = self.cache.lock().expect("registry cache");
        match cache.entry(key.to_string()) {
            Entry::Occupied(e) => {
                ksa_obs::perf_count(ksa_obs::PerfCounter::RegistryRedundantBuilds, 1);
                Ok(Arc::clone(e.get()))
            }
            Entry::Vacant(v) => {
                ksa_obs::count(ksa_obs::Counter::RegistryMaterializations, 1);
                Ok(Arc::clone(v.insert(built)))
            }
        }
    }
}

/// The process-wide builtin registry: the full generated zoo of
/// [`crate::modelgen::builtin_specs`] (100+ models).
pub fn builtin() -> &'static Registry {
    static BUILTIN: OnceLock<Registry> = OnceLock::new();
    BUILTIN.get_or_init(|| {
        let mut reg = Registry::new();
        for spec in crate::modelgen::builtin_specs() {
            reg.insert(spec);
        }
        reg
    })
}

/// Splits a comma-separated glob list, keeping commas inside balanced
/// `{…}` attached to their pattern (canonical names contain commas).
fn split_pattern_list(pattern: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in pattern.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(pattern[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(pattern[start..].trim());
    out.retain(|p| !p.is_empty());
    out
}

/// Classic glob matching: `*` matches any (possibly empty) run, `?` any
/// single character, everything else literally.
fn glob_match(pattern: &str, name: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let s: Vec<char> = name.chars().collect();
    let (mut pi, mut si) = (0usize, 0usize);
    let (mut star_pi, mut star_si) = (usize::MAX, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == s[si]) {
            pi += 1;
            si += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star_pi = pi;
            star_si = si;
            pi += 1;
        } else if star_pi != usize::MAX {
            // Backtrack: let the last '*' absorb one more character.
            pi = star_pi + 1;
            star_si += 1;
            si = star_si;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_basics() {
        assert!(glob_match("stars*", "stars{n=3,s=1}"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("ring{n=?}", "ring{n=4}"));
        assert!(glob_match("stars{n=3,s=1}", "stars{n=3,s=1}"));
        assert!(!glob_match("stars*", "ring{n=4}"));
        assert!(!glob_match("ring{n=?}", "ring{n=41}"));
        assert!(glob_match("*sym}", "ring{n=4,sym}"));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
    }

    #[test]
    fn pattern_lists_respect_braces() {
        assert_eq!(split_pattern_list("stars*,ring*"), vec!["stars*", "ring*"]);
        assert_eq!(
            split_pattern_list("stars{n=3,s=1},ring*"),
            vec!["stars{n=3,s=1}", "ring*"]
        );
        assert_eq!(split_pattern_list(" a , , b "), vec!["a", "b"]);
    }

    #[test]
    fn resolve_registered_and_fallback() {
        let mut reg = Registry::new();
        let name = reg.insert(ModelSpec::stars(3, 1));
        assert_eq!(name, "stars{n=3,s=1}");
        assert_eq!(reg.len(), 1);
        let a = reg.resolve(&name, 1_000u128).unwrap();
        // Cache: same Arc on the second lookup.
        let b = reg.resolve(&name, 1_000u128).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Unregistered names parse as specs…
        let c = reg.resolve("ring{n=4,sym}", 1_000u128).unwrap();
        assert_eq!(c.as_closed_above().unwrap().generators().len(), 6);
        // …and garbage is UnknownModel.
        let err = reg.resolve("no such model", 1_000u128).unwrap_err();
        assert!(matches!(err, ModelError::UnknownModel { .. }), "{err}");
    }

    #[test]
    fn resolve_does_not_cache_failures() {
        let mut reg = Registry::new();
        let name = reg.insert(ModelSpec::tournament(3));
        assert!(matches!(
            reg.resolve(&name, 2u128).unwrap_err(),
            ModelError::Budget(_)
        ));
        // A later, bigger budget succeeds.
        assert!(reg.resolve(&name, 1_000u128).is_ok());
    }

    #[test]
    fn select_sorted_and_filtered() {
        let mut reg = Registry::new();
        reg.insert(ModelSpec::ring(4, true));
        reg.insert(ModelSpec::ring(3, false));
        reg.insert(ModelSpec::stars(3, 1));
        assert_eq!(
            reg.select("ring*"),
            vec!["ring{n=3}", "ring{n=4,sym}"],
            "sorted by name"
        );
        assert_eq!(reg.select("stars*,ring{n=3}").len(), 2);
        assert!(reg.select("tournament*").is_empty());
    }

    #[test]
    fn builtin_is_shared_and_nonempty() {
        let a = builtin();
        let b = builtin();
        assert!(std::ptr::eq(a, b));
        assert!(a.len() >= 100, "builtin zoo has {} entries", a.len());
    }
}
