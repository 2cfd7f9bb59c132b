//! Object classes.
//!
//! The paper's queries search for a specific class of object per query ("find 20
//! traffic lights").  Classes are plain interned strings.

use std::fmt;
use std::sync::Arc;

/// An object class (e.g. "traffic light").
///
/// Internally an `Arc<str>` so that cloning a class (which happens once per
/// detection) never allocates.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectClass(Arc<str>);

impl ObjectClass {
    /// The class name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ObjectClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ObjectClass {
    fn from(name: &str) -> Self {
        ObjectClass(Arc::from(name))
    }
}

impl From<String> for ObjectClass {
    fn from(name: String) -> Self {
        ObjectClass(Arc::from(name.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equality_and_hashing() {
        let a = ObjectClass::from("car");
        let b = ObjectClass::from(String::from("car"));
        let c = ObjectClass::from("bus");
        assert_eq!(a, b);
        assert_ne!(a, c);
        let set: HashSet<ObjectClass> = [a.clone(), b, c].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_and_name() {
        let c = ObjectClass::from("traffic light");
        assert_eq!(c.to_string(), "traffic light");
        assert_eq!(c.name(), "traffic light");
    }

    #[test]
    fn from_string() {
        let c = ObjectClass::from(String::from("boat"));
        assert_eq!(c.name(), "boat");
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let a = ObjectClass::from("person");
        let b = a.clone();
        assert_eq!(a, b);
    }
}
