//! The catalog: named relation definitions (scheme, dependencies, domains)
//! and the semantic facts derived from each.
//!
//! A relation's facts ([`SemanticFacts`]: mandatory attributes, dependency
//! closures, EAD variants) follow from its scheme and dependencies alone,
//! so they are built once, when the relation is registered, and shared by
//! every statement planned against the catalog.  Definitions are immutable
//! once registered, so the facts cannot go stale.

use std::collections::BTreeMap;
use std::sync::Arc;

use flexrel_core::attr::Attr;
use flexrel_core::dep::{Dependency, DependencySet};
use flexrel_core::error::{CoreError, Result};
use flexrel_core::facts::SemanticFacts;
use flexrel_core::relation::FlexRelation;
use flexrel_core::scheme::FlexScheme;
use flexrel_core::value::Domain;

/// The definition of one relation: everything except its instance.
#[derive(Clone, Debug)]
pub struct RelationDef {
    /// Relation name.
    pub name: String,
    /// The flexible scheme.
    pub scheme: FlexScheme,
    /// Declared dependencies (EADs, ADs, FDs).
    pub deps: DependencySet,
    /// Declared attribute domains.
    pub domains: BTreeMap<Attr, Domain>,
}

impl RelationDef {
    /// Creates a definition with no dependencies or domains.
    pub fn new(name: impl Into<String>, scheme: FlexScheme) -> Self {
        RelationDef {
            name: name.into(),
            scheme,
            deps: DependencySet::new(),
            domains: BTreeMap::new(),
        }
    }

    /// Adds a dependency (builder style).
    pub fn with_dep(mut self, dep: impl Into<Dependency>) -> Self {
        self.deps.add(dep);
        self
    }

    /// Declares an attribute domain (builder style).
    pub fn with_domain(mut self, attr: impl Into<Attr>, domain: Domain) -> Self {
        self.domains.insert(attr.into(), domain);
        self
    }

    /// Builds an empty [`FlexRelation`] from this definition.
    pub fn empty_relation(&self) -> FlexRelation {
        FlexRelation::from_parts(
            self.name.clone(),
            self.scheme.clone(),
            self.domains.clone(),
            self.deps.clone(),
            Vec::new(),
        )
    }

    /// Extracts a definition from an existing relation.
    pub fn from_relation(rel: &FlexRelation) -> Self {
        RelationDef {
            name: rel.name().to_string(),
            scheme: rel.scheme().clone(),
            deps: rel.deps().clone(),
            domains: rel.domains().clone(),
        }
    }
}

/// One registered relation: its definition and the facts built from it.
#[derive(Clone, Debug)]
struct Entry {
    def: RelationDef,
    facts: Arc<SemanticFacts>,
}

/// A catalog of relation definitions.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    relations: BTreeMap<String, Entry>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog {
            relations: BTreeMap::new(),
        }
    }

    /// Registers a relation definition and builds its semantic facts; fails
    /// if the name is taken.
    pub fn register(&mut self, def: RelationDef) -> Result<()> {
        if self.relations.contains_key(&def.name) {
            return Err(CoreError::Invalid(format!(
                "relation {} already exists",
                def.name
            )));
        }
        let facts = Arc::new(SemanticFacts::new(&def.scheme, &def.deps));
        self.relations
            .insert(def.name.clone(), Entry { def, facts });
        Ok(())
    }

    fn entry(&self, name: &str) -> Result<&Entry> {
        self.relations
            .get(name)
            .ok_or_else(|| CoreError::NotFound(format!("relation {}", name)))
    }

    /// Looks up a definition.
    pub fn get(&self, name: &str) -> Result<&RelationDef> {
        self.entry(name).map(|e| &e.def)
    }

    /// The semantic facts of a relation, built when it was registered.
    pub fn facts(&self, name: &str) -> Result<&Arc<SemanticFacts>> {
        self.entry(name).map(|e| &e.facts)
    }

    /// Drops a definition (and its facts), returning the definition.
    pub fn drop(&mut self, name: &str) -> Result<RelationDef> {
        self.relations
            .remove(name)
            .map(|e| e.def)
            .ok_or_else(|| CoreError::NotFound(format!("relation {}", name)))
    }

    /// Whether a relation is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Names of all registered relations.
    pub fn names(&self) -> Vec<&str> {
        self.relations.keys().map(|s| s.as_str()).collect()
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrel_core::attr::AttrSet;
    use flexrel_core::attrs;
    use flexrel_core::dep::Fd;

    fn def() -> RelationDef {
        RelationDef::new("emp", FlexScheme::relational(attrs!["empno", "name"]))
            .with_dep(Fd::new(attrs!["empno"], attrs!["name"]))
            .with_domain("empno", Domain::Int)
    }

    #[test]
    fn register_lookup_drop() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.register(def()).unwrap();
        assert!(c.contains("emp"));
        assert_eq!(c.len(), 1);
        assert_eq!(c.names(), vec!["emp"]);
        assert_eq!(c.get("emp").unwrap().deps.len(), 1);
        assert!(c.get("nope").is_err());
        assert!(c.register(def()).is_err(), "duplicate names rejected");
        c.drop("emp").unwrap();
        assert!(c.drop("emp").is_err());
        assert!(c.is_empty());
    }

    #[test]
    fn definition_round_trips_through_relation() {
        let d = def();
        let rel = d.empty_relation();
        assert_eq!(rel.name(), "emp");
        assert!(rel.is_empty());
        let d2 = RelationDef::from_relation(&rel);
        assert_eq!(d2.name, d.name);
        assert_eq!(d2.scheme, d.scheme);
        assert_eq!(d2.deps, d.deps);
        assert_eq!(d2.domains, d.domains);
    }

    /// Asserts that two fact sets agree on the attribute sets, the
    /// mandatory attributes and functional determination among `probes`.
    fn assert_same_facts(got: &SemanticFacts, want: &SemanticFacts, probes: &[AttrSet]) {
        assert_eq!(got.attrs(), want.attrs());
        assert_eq!(got.mandatory(), want.mandatory());
        for x in probes {
            for y in probes {
                assert_eq!(
                    got.determines(x, y),
                    want.determines(x, y),
                    "{} determines {}",
                    x,
                    y
                );
            }
        }
    }

    fn employee() -> RelationDef {
        RelationDef::from_relation(&flexrel_workload::employee_relation())
    }

    fn probes() -> Vec<AttrSet> {
        vec![
            attrs!["empno"],
            attrs!["name"],
            attrs!["jobtype"],
            attrs!["name", "salary", "jobtype"],
            attrs!["typing-speed"],
        ]
    }

    #[test]
    fn facts_are_built_at_registration() {
        let mut c = Catalog::new();
        let def = employee();
        c.register(def.clone()).unwrap();
        let fresh = SemanticFacts::new(&def.scheme, &def.deps);
        assert_same_facts(c.facts("employee").unwrap(), &fresh, &probes());
        assert!(c
            .facts("employee")
            .unwrap()
            .determines(&attrs!["empno"], &attrs!["name", "salary"]));
        assert!(c.facts("nope").is_err());
    }

    #[test]
    fn re_registration_replaces_the_facts() {
        let mut c = Catalog::new();
        c.register(employee()).unwrap();
        c.drop("employee").unwrap();
        assert!(c.facts("employee").is_err(), "drop removes the facts");
        let mut def = employee();
        def.deps = DependencySet::new();
        def.deps.add(Fd::new(attrs!["name"], attrs!["empno"]));
        c.register(def.clone()).unwrap();
        let facts = c.facts("employee").unwrap();
        assert_same_facts(
            facts,
            &SemanticFacts::new(&def.scheme, &def.deps),
            &probes(),
        );
        assert!(facts.determines(&attrs!["name"], &attrs!["empno"]));
        assert!(!facts.determines(&attrs!["empno"], &attrs!["name"]));
    }

    #[test]
    fn decoded_definitions_carry_the_same_facts() {
        let mut encoded = Catalog::new();
        encoded.register(employee()).unwrap();
        encoded.register(def()).unwrap();
        let mut buf = Vec::new();
        for name in encoded.names() {
            crate::codec::put_relation_def(&mut buf, encoded.get(name).unwrap());
        }
        let mut cur = crate::codec::Cursor::new(&buf);
        let mut decoded = Catalog::new();
        while !cur.is_empty() {
            decoded
                .register(crate::codec::get_relation_def(&mut cur).unwrap())
                .unwrap();
        }
        assert_eq!(decoded.names(), encoded.names());
        let mut probes = probes();
        probes.push(attrs!["empno", "name"]);
        for name in encoded.names() {
            assert_same_facts(
                decoded.facts(name).unwrap(),
                encoded.facts(name).unwrap(),
                &probes,
            );
        }
    }
}
