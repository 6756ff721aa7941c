//! Hash indexes over attribute sets.
//!
//! An index maps the projection of a tuple onto the index key (an attribute
//! set) to the tuple identifiers carrying that projection.  Indexes over the
//! determining attributes of the declared ADs/FDs make both dependency
//! checking at insert time and equality selections on the determinant cheap
//! — the access-path counterpart of the query-rewrite uses of ADs (§3.1.2).
//!
//! With shape-partitioned heaps the indexed identifiers are [`Rid`]s, so an
//! index probe lands directly in the right partition.
//!
//! An entry is keyed by the key attributes' values alone, in an attribute
//! order fixed when the index is created, so a key costs one boxed value
//! slice instead of a whole [`Tuple`].  A key carried by one tuple (every
//! key of a key index) stores its identifier inline.

use std::collections::HashMap;

use flexrel_core::attr::{Attr, AttrSet};
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;

use crate::partition::Rid;

/// The identifiers carrying one key value: inline while there is one, a
/// vector from the second on.
#[derive(Clone, Debug)]
enum Rids {
    One(Rid),
    Many(Vec<Rid>),
}

impl Rids {
    fn as_slice(&self) -> &[Rid] {
        match self {
            Rids::One(rid) => std::slice::from_ref(rid),
            Rids::Many(rids) => rids,
        }
    }

    fn push(&mut self, rid: Rid) {
        match self {
            Rids::One(first) => *self = Rids::Many(vec![*first, rid]),
            Rids::Many(rids) => rids.push(rid),
        }
    }

    /// Removes every occurrence of `rid`, returning how many there were.
    /// A set left with one identifier moves it back inline; an emptied set
    /// is `Many` of an empty vector, which the caller drops.
    fn remove(&mut self, rid: Rid) -> usize {
        match self {
            Rids::One(only) if *only == rid => {
                *self = Rids::Many(Vec::new());
                1
            }
            Rids::One(_) => 0,
            Rids::Many(rids) => {
                let before = rids.len();
                rids.retain(|x| *x != rid);
                let removed = before - rids.len();
                if let [only] = rids[..] {
                    *self = Rids::One(only);
                }
                removed
            }
        }
    }
}

/// Calls `f` with the values of `t` on `attrs`, in that order, or returns
/// `None` when `t` lacks one of them.  A one-attribute key borrows the
/// tuple's value; longer keys are collected first.
fn with_key<R>(attrs: &[Attr], t: &Tuple, f: impl FnOnce(&[Value]) -> R) -> Option<R> {
    match attrs {
        [a] => t.get(a).map(|v| f(std::slice::from_ref(v))),
        _ => {
            let values: Option<Vec<Value>> = attrs.iter().map(|a| t.get(a).cloned()).collect();
            values.map(|vs| f(&vs))
        }
    }
}

/// A hash index over a fixed attribute-set key.
#[derive(Clone, Debug)]
pub struct HashIndex {
    key: AttrSet,
    /// The key attributes in canonical order: a stored key holds the value
    /// of `attrs[i]` at position `i`.
    attrs: Box<[Attr]>,
    entries: HashMap<Box<[Value]>, Rids>,
    /// Number of identifiers reachable through `entries`, kept so that
    /// [`HashIndex::len`] does not walk the map.
    keyed: usize,
    /// Tuples not defined on the full key are unreachable through the index
    /// and tracked separately so scans can fall back to them.
    partial: Vec<Rid>,
}

impl HashIndex {
    /// Creates an empty index over `key`.
    pub fn new(key: impl Into<AttrSet>) -> Self {
        let key = key.into();
        HashIndex {
            attrs: key.to_vec().into_boxed_slice(),
            key,
            entries: HashMap::new(),
            keyed: 0,
            partial: Vec::new(),
        }
    }

    /// The indexed attribute set.
    pub fn key(&self) -> &AttrSet {
        &self.key
    }

    /// Indexes a tuple.
    pub fn insert(&mut self, rid: Rid, t: &Tuple) {
        let key: Option<Box<[Value]>> = self.attrs.iter().map(|a| t.get(a).cloned()).collect();
        match key {
            Some(key) => {
                self.entries
                    .entry(key)
                    .and_modify(|rids| rids.push(rid))
                    .or_insert(Rids::One(rid));
                self.keyed += 1;
            }
            None => self.partial.push(rid),
        }
    }

    /// Removes a tuple from the index.
    pub fn remove(&mut self, rid: Rid, t: &Tuple) {
        let entries = &mut self.entries;
        let removed = with_key(&self.attrs, t, |key| {
            let Some(rids) = entries.get_mut(key) else {
                return 0;
            };
            let removed = rids.remove(rid);
            if rids.as_slice().is_empty() {
                entries.remove(key);
            }
            removed
        });
        match removed {
            Some(n) => self.keyed -= n,
            None => self.partial.retain(|x| *x != rid),
        }
    }

    /// Tuple identifiers whose key projection equals `key_value` (a tuple
    /// over exactly the index key; any other shape matches nothing).
    pub fn lookup(&self, key_value: &Tuple) -> &[Rid] {
        if key_value.shape() != &self.key {
            return &[];
        }
        with_key(&self.attrs, key_value, |key| {
            self.entries.get(key).map(Rids::as_slice)
        })
        .flatten()
        .unwrap_or(&[])
    }

    /// Tuple identifiers of tuples not defined on the full index key.
    pub fn partial_tuples(&self) -> &[Rid] {
        &self.partial
    }

    /// Iterates over the index entries: each distinct key projection (as a
    /// tuple over the key) with the identifiers of the tuples carrying it.
    /// Entry and identifier order are unspecified; canonicalize before
    /// comparing snapshots.
    pub fn entries(&self) -> impl Iterator<Item = (Tuple, &[Rid])> + '_ {
        self.entries.iter().map(|(key, rids)| {
            let t = Tuple::from_shape_values(self.key.clone(), &self.attrs, key.iter().cloned());
            (t, rids.as_slice())
        })
    }

    /// Number of distinct key values.
    pub fn distinct_keys(&self) -> usize {
        self.entries.len()
    }

    /// Total number of indexed tuples (including partial ones).
    pub fn len(&self) -> usize {
        self.keyed + self.partial.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::TupleId;
    use flexrel_core::{attrs, tuple};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn rid(n: u32) -> Rid {
        // Distinct Rids in one shape: slot `n` of the first segment.
        Rid::new(tuple! {"x" => 0}.shape_id(), TupleId::new(0, n))
    }

    #[test]
    fn insert_lookup_remove() {
        let mut idx = HashIndex::new(attrs!["jobtype"]);
        let t1 = tuple! {"jobtype" => Value::tag("secretary"), "empno" => 1};
        let t2 = tuple! {"jobtype" => Value::tag("secretary"), "empno" => 2};
        let t3 = tuple! {"jobtype" => Value::tag("salesman"), "empno" => 3};
        let (a, b, c) = (rid(0), rid(1), rid(2));
        idx.insert(a, &t1);
        idx.insert(b, &t2);
        idx.insert(c, &t3);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.distinct_keys(), 2);
        let key = tuple! {"jobtype" => Value::tag("secretary")};
        assert_eq!(idx.lookup(&key).len(), 2);
        idx.remove(a, &t1);
        assert_eq!(idx.lookup(&key).len(), 1);
        idx.remove(b, &t2);
        assert!(idx.lookup(&key).is_empty());
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn tuples_without_key_go_to_partial_list() {
        let mut idx = HashIndex::new(attrs!["jobtype"]);
        let t = tuple! {"empno" => 1};
        let a = rid(0);
        idx.insert(a, &t);
        assert_eq!(idx.partial_tuples(), &[a]);
        assert_eq!(idx.len(), 1);
        idx.remove(a, &t);
        assert!(idx.is_empty());
    }

    #[test]
    fn key_accessor() {
        let idx = HashIndex::new(attrs!["a", "b"]);
        assert_eq!(idx.key(), &attrs!["a", "b"]);
    }

    /// The reference the index is checked against: the plain map from key
    /// projections to identifier lists, plus the partial list.
    #[derive(Default)]
    struct Model {
        keyed: BTreeMap<Tuple, Vec<Rid>>,
        partial: Vec<Rid>,
    }

    impl Model {
        fn insert(&mut self, key: &AttrSet, rid: Rid, t: &Tuple) {
            if t.defined_on(key) {
                self.keyed.entry(t.project(key)).or_default().push(rid);
            } else {
                self.partial.push(rid);
            }
        }

        fn remove(&mut self, key: &AttrSet, rid: Rid, t: &Tuple) {
            if t.defined_on(key) {
                let k = t.project(key);
                if let Some(rids) = self.keyed.get_mut(&k) {
                    rids.retain(|x| *x != rid);
                    if rids.is_empty() {
                        self.keyed.remove(&k);
                    }
                }
            } else {
                self.partial.retain(|x| *x != rid);
            }
        }
    }

    fn sorted(rids: &[Rid]) -> Vec<Rid> {
        let mut v = rids.to_vec();
        v.sort_unstable();
        v
    }

    /// A tuple over a random subset of `a`, `b`, `c` with values from a
    /// domain small enough that keys repeat; `a` mixes integers and strings.
    fn random_tuple(rng: &mut TestRng) -> Tuple {
        let mut t = Tuple::new();
        for name in ["a", "b", "c"] {
            if !rng.next_u64().is_multiple_of(4) {
                let n = (rng.next_u64() % 4) as i64;
                let v = if name == "a" && n % 2 == 1 {
                    Value::str(format!("s{n}"))
                } else {
                    Value::Int(n)
                };
                t.insert(name, v);
            }
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn index_agrees_with_map_model(seed in any::<u64>(), two_attrs in any::<bool>()) {
            let mut rng = TestRng::new(seed);
            let key = if two_attrs { attrs!["a", "b"] } else { attrs!["a"] };
            let mut idx = HashIndex::new(key.clone());
            let mut model = Model::default();
            let mut inserted: Vec<(Rid, Tuple)> = Vec::new();
            let mut probes: Vec<Tuple> = Vec::new();
            for step in 0..120u32 {
                match rng.next_u64() % 10 {
                    // Insert a fresh identifier.
                    0..=5 => {
                        let t = random_tuple(&mut rng);
                        let r = rid(step);
                        idx.insert(r, &t);
                        model.insert(&key, r, &t);
                        if t.defined_on(&key) {
                            probes.push(t.project(&key));
                        }
                        inserted.push((r, t));
                    }
                    // Remove an inserted identifier; it may already be gone.
                    6..=8 if !inserted.is_empty() => {
                        let i = (rng.next_u64() % inserted.len() as u64) as usize;
                        let (r, t) = inserted[i].clone();
                        idx.remove(r, &t);
                        model.remove(&key, r, &t);
                    }
                    // Remove an identifier that was never inserted.
                    _ => {
                        let t = random_tuple(&mut rng);
                        idx.remove(rid(10_000 + step), &t);
                    }
                }
                let keyed: usize = model.keyed.values().map(Vec::len).sum();
                prop_assert_eq!(idx.len(), keyed + model.partial.len());
                prop_assert_eq!(idx.is_empty(), keyed + model.partial.len() == 0);
                prop_assert_eq!(idx.distinct_keys(), model.keyed.len());
                prop_assert_eq!(sorted(idx.partial_tuples()), sorted(&model.partial));
            }
            for probe in &probes {
                let expected = model.keyed.get(probe).map(|v| sorted(v)).unwrap_or_default();
                prop_assert_eq!(sorted(idx.lookup(probe)), expected);
                // A probe whose shape is not exactly the key matches nothing.
                prop_assert!(idx.lookup(&probe.clone().with("c", 0)).is_empty());
                let mut narrower = probe.clone();
                narrower.remove(&Attr::new("a"));
                prop_assert!(idx.lookup(&narrower).is_empty());
            }
            let entries: BTreeMap<Tuple, Vec<Rid>> =
                idx.entries().map(|(k, rids)| (k, sorted(rids))).collect();
            let expected: BTreeMap<Tuple, Vec<Rid>> = model
                .keyed
                .iter()
                .map(|(k, rids)| (k.clone(), sorted(rids)))
                .collect();
            prop_assert_eq!(entries, expected);
        }
    }
}
