//! The user-defined function library and registry.
//!
//! "Users can make new functions available by adding the code for the
//! function to the function library, and registering the function
//! prototype in the function registry" (paper §2.2). Prototypes live in
//! the GSQL catalog; implementations are registered here under the same
//! names. A function instance is created per call site at query
//! instantiation, when its pass-by-handle parameters (a prefix-table file
//! name, a regular expression) are pre-processed — "these parameters
//! require expensive pre-processing before the function can use them".

pub mod lpm;
pub mod regex;
pub mod strfns;

use crate::value::Value;
use crate::RuntimeError;
use std::collections::HashMap;
use std::sync::Arc;

/// A scalar function instance, ready to evaluate per tuple.
///
/// Returning `None` from a *partial* function discards the tuple being
/// processed — "the same as if there is no result from a join".
/// Instances are `Sync` because a compiled [`Program`](crate::expr::Program)
/// may be shared (`Arc`) between LFTAs.
pub trait ScalarUdf: Send + Sync {
    /// Evaluate over the call's runtime arguments (handle positions
    /// receive their bound values again, but instances typically ignore
    /// them).
    fn eval(&self, args: &[Value]) -> Option<Value>;
}

/// Resolves pass-by-handle file names to contents, so tests and examples
/// can supply in-memory tables while deployments read real files.
pub trait HandleResolver: Send + Sync {
    /// Read the named resource.
    fn read(&self, name: &str) -> Result<Vec<u8>, RuntimeError>;
}

/// Resolver over an in-memory map, falling back to the filesystem.
#[derive(Debug, Default, Clone)]
pub struct FileStore {
    mem: HashMap<String, Vec<u8>>,
}

impl FileStore {
    /// Empty store (filesystem fallback only).
    pub fn new() -> FileStore {
        FileStore::default()
    }

    /// Register an in-memory file.
    pub fn insert(&mut self, name: impl Into<String>, contents: impl Into<Vec<u8>>) {
        self.mem.insert(name.into(), contents.into());
    }
}

impl HandleResolver for FileStore {
    fn read(&self, name: &str) -> Result<Vec<u8>, RuntimeError> {
        if let Some(v) = self.mem.get(name) {
            return Ok(v.clone());
        }
        std::fs::read(name)
            .map_err(|e| RuntimeError::msg(format!("cannot read handle file `{name}`: {e}")))
    }
}

/// Factory producing a function instance from its bound handle arguments
/// (`None` at non-handle positions).
pub type UdfFactory = Arc<
    dyn Fn(&[Option<Value>], &dyn HandleResolver) -> Result<Box<dyn ScalarUdf>, RuntimeError>
        + Send
        + Sync,
>;

/// The implementation registry.
#[derive(Clone)]
pub struct UdfRegistry {
    factories: HashMap<String, UdfFactory>,
}

impl UdfRegistry {
    /// Registry with all built-in functions.
    pub fn with_builtins() -> UdfRegistry {
        let mut r = UdfRegistry { factories: HashMap::new() };
        r.register("getlpmid", Arc::new(lpm::make_getlpmid));
        r.register("str_match_regex", Arc::new(regex::make_str_match_regex));
        r.register("str_find_substr", Arc::new(strfns::make_str_find_substr));
        r.register("str_len", Arc::new(strfns::make_str_len));
        r.register("to_float", Arc::new(strfns::make_to_float));
        r
    }

    /// Register (or replace) an implementation.
    pub fn register(&mut self, name: impl Into<String>, factory: UdfFactory) {
        self.factories.insert(name.into(), factory);
    }

    /// Instantiate a call site.
    pub fn instantiate(
        &self,
        name: &str,
        handle_args: &[Option<Value>],
        resolver: &dyn HandleResolver,
    ) -> Result<Box<dyn ScalarUdf>, RuntimeError> {
        let f = self
            .factories
            .get(name)
            .ok_or_else(|| RuntimeError::msg(format!("no implementation for function `{name}`")))?;
        f(handle_args, resolver)
    }
}

impl std::fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.factories.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        f.debug_struct("UdfRegistry").field("functions", &names).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_instantiate() {
        let reg = UdfRegistry::with_builtins();
        let store = FileStore::new();
        assert!(reg.instantiate("str_len", &[None], &store).is_ok());
        assert!(reg.instantiate("to_float", &[None], &store).is_ok());
        assert!(reg.instantiate("nosuch", &[], &store).is_err());
    }

    #[test]
    fn file_store_prefers_memory() {
        let mut store = FileStore::new();
        store.insert("x.tbl", b"data".to_vec());
        assert_eq!(store.read("x.tbl").unwrap(), b"data");
        assert!(store.read("/definitely/not/here.tbl").is_err());
    }

    #[test]
    fn custom_registration() {
        struct AlwaysOne;
        impl ScalarUdf for AlwaysOne {
            fn eval(&self, _args: &[Value]) -> Option<Value> {
                Some(Value::UInt(1))
            }
        }
        let mut reg = UdfRegistry::with_builtins();
        reg.register("one", Arc::new(|_, _| Ok(Box::new(AlwaysOne))));
        let f = reg.instantiate("one", &[], &FileStore::new()).unwrap();
        assert_eq!(f.eval(&[]), Some(Value::UInt(1)));
    }
}
