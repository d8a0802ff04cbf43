//! The relevant-element search over a cache of view definitions.
//!
//! §5.3.2's two-step sketch: "1. Consider subqueries of single predicates
//! and the cache elements that have the same predicate in their
//! definitions. An index of type (predicate name, cache element) can
//! expedite this process. ... 2. Consider the predicates to the left and
//! the right of the predicate considered in step 1. If the query does not
//! have the same respective predicates that are also subsumed by the
//! predicates in the cache element, then the cache element is more
//! restricted, and cannot be used".
//!
//! Step 1's index is sharpened here with the paper's own matching rule:
//! "a constant in the predicate in the subquery can match with the same
//! constant or a variable at the corresponding position in the predicate
//! in the cache element, but a variable can only match with a variable".
//! Read from the element's side: a constant `c` at position `i` of an
//! element atom `p(...)` matches only the same constant `c` at position
//! `i` of a `p` atom of the query. [`crate::subsumes`] maps every element
//! atom onto a component atom of the same functor, so every component an
//! element can subsume contains each functor of the element's body and
//! each `(functor, position, constant)` of it. The engine therefore files
//! each element under one *key* its body forces on all such components:
//! its first constant as `(functor, position, constant)`, or, for a body
//! without constants, the functor of its first atom. A constant key is
//! what makes the index selective: a predicate-name index degenerates to
//! a full scan once every element mentions the same relation, while
//! bound constants spread the elements over many buckets.
//!
//! A component's candidates are the union of the buckets its own atoms
//! hit (each atom's functor and each of its constants). An element outside
//! that union is missing its key from the component and cannot subsume
//! it, so the candidates are a superset of the subsumers. They are checked
//! in ascending id order, exactly as an exhaustive scan of the cache would
//! visit them, so the results match such a scan element for element. The
//! full containment check of [`crate::subsumes`] — whose bijective atom
//! assignment is exactly the left/right-neighbour requirement, applied
//! exhaustively — confirms or rejects each candidate (step 2).

use crate::decompose::{decompose, Component};
use crate::derive::Derivation;
use crate::subsume::subsumes;
use crate::view::ViewDef;
use braid_caql::{Atom, ConjunctiveQuery, Term, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Identifier of a registered element (assigned by the caller — the CMS
/// uses its cache-element ids).
pub type ElemId = u64;

/// A way to compute one component of a query from one cached element.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateUse {
    /// The cache element that subsumes the component.
    pub element: ElemId,
    /// The subsumed component of the query.
    pub component: Component,
    /// The compensation computing the component from the element.
    pub derivation: Derivation,
}

/// An index bucket: a functor, optionally narrowed to one constant at one
/// argument position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct IndexKey {
    pred: String,
    arity: usize,
    /// `(position, constant)` for a constant key; `None` for a functor key.
    constant: Option<(usize, Value)>,
}

impl IndexKey {
    fn new(a: &Atom, constant: Option<(usize, Value)>) -> IndexKey {
        IndexKey {
            pred: a.pred.clone(),
            arity: a.arity(),
            constant,
        }
    }

    /// The one key `def` is filed under: the first constant of its body,
    /// else the functor of its first atom.
    fn of_element(def: &ViewDef) -> IndexKey {
        let atoms = def.atoms();
        atoms
            .iter()
            .find_map(|a| {
                a.args.iter().enumerate().find_map(|(i, t)| match t {
                    Term::Const(c) => Some(IndexKey::new(a, Some((i, c.clone())))),
                    Term::Var(_) => None,
                })
            })
            .unwrap_or_else(|| IndexKey::new(atoms[0], None))
    }

    /// Every key a query atom hits: its functor and each of its constants.
    fn probed_by(a: &Atom) -> impl Iterator<Item = IndexKey> + '_ {
        let constants = a.args.iter().enumerate().filter_map(|(i, t)| match t {
            Term::Const(c) => Some(Some((i, c.clone()))),
            Term::Var(_) => None,
        });
        std::iter::once(None)
            .chain(constants)
            .map(|constant| IndexKey::new(a, constant))
    }
}

/// An index of view definitions supporting relevant-element search.
#[derive(Debug, Default)]
pub struct SubsumptionEngine {
    elements: BTreeMap<ElemId, ViewDef>,
    /// Key → the elements filed under it (each element in exactly one).
    index: HashMap<IndexKey, BTreeSet<ElemId>>,
}

impl SubsumptionEngine {
    /// Empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an element's definition under `id`, replacing any
    /// definition already registered there.
    pub fn insert(&mut self, id: ElemId, def: ViewDef) {
        self.remove(id);
        self.index
            .entry(IndexKey::of_element(&def))
            .or_default()
            .insert(id);
        self.elements.insert(id, def);
    }

    /// Remove an element (e.g. after cache replacement).
    pub fn remove(&mut self, id: ElemId) -> Option<ViewDef> {
        let def = self.elements.remove(&id)?;
        let key = IndexKey::of_element(&def);
        if let Some(bucket) = self.index.get_mut(&key) {
            bucket.remove(&id);
            if bucket.is_empty() {
                self.index.remove(&key);
            }
        }
        Some(def)
    }

    /// The definition registered under `id`.
    pub fn definition(&self, id: ElemId) -> Option<&ViewDef> {
        self.elements.get(&id)
    }

    /// Number of registered elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True when no element is registered.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The buckets each atom of `q` hits, per positive atom.
    fn buckets_per_atom(&self, q: &ConjunctiveQuery) -> Vec<Vec<&BTreeSet<ElemId>>> {
        q.positive_atoms()
            .into_iter()
            .map(|a| {
                IndexKey::probed_by(a)
                    .filter_map(|k| self.index.get(&k))
                    .collect()
            })
            .collect()
    }

    /// Find every `(component, element, derivation)` triple for `q` — the
    /// paper's set of relevant elements `R(Eᵢ)` of `Q`, with the extra
    /// information of *which* component each element derives and *how*.
    /// Components are returned largest-first, elements in ascending id
    /// order within a component. `checks` grows by the number of
    /// containment checks run.
    pub fn find_relevant(&self, q: &ConjunctiveQuery, checks: &mut usize) -> Vec<CandidateUse> {
        let buckets = self.buckets_per_atom(q);
        let mut out = Vec::new();
        for component in decompose(q) {
            // Step 1: the elements keyed by something in the component.
            let candidates = union(&buckets[component.start..component.end]);
            if candidates.is_empty() {
                continue;
            }
            *checks += candidates.len();
            let needed = component.needed_vars(q);
            let needed_refs: Vec<&str> = needed.iter().map(String::as_str).collect();
            // Step 2: the full containment check.
            for id in candidates {
                if let Some(derivation) = subsumes(&self.elements[&id], &component, &needed_refs) {
                    out.push(CandidateUse {
                        element: id,
                        component: component.clone(),
                        derivation,
                    });
                }
            }
        }
        out
    }

    /// Elements that subsume the *whole* query — usable to answer it
    /// entirely from the cache — in ascending id order. `checks` grows by
    /// the number of containment checks run.
    pub fn find_whole(
        &self,
        q: &ConjunctiveQuery,
        checks: &mut usize,
    ) -> Vec<(ElemId, Derivation)> {
        let candidates = union(&self.buckets_per_atom(q));
        if candidates.is_empty() {
            return Vec::new();
        }
        *checks += candidates.len();
        let component = Component::whole(q);
        let needed: Vec<&str> = q.head.var_set().into_iter().collect();
        candidates
            .into_iter()
            .filter_map(|id| Some((id, subsumes(&self.elements[&id], &component, &needed)?)))
            .collect()
    }
}

/// The ids in any of the buckets hit by a run of atoms, ascending and
/// without repeats.
fn union(buckets: &[Vec<&BTreeSet<ElemId>>]) -> Vec<ElemId> {
    let mut ids: Vec<ElemId> = buckets
        .iter()
        .flatten()
        .flat_map(|b| b.iter().copied())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_caql::parse_rule;

    fn view(src: &str) -> ViewDef {
        ViewDef::new(parse_rule(src).unwrap()).unwrap()
    }

    /// The cache state of the paper's running example (§5.3.2):
    ///   E11: b2(X, c1) & b3(Y, c2, c6)
    ///   E12: b3(X, c2, Y)
    ///   E13: b3(X, Y, Z)
    fn paper_cache() -> SubsumptionEngine {
        let mut e = SubsumptionEngine::new();
        e.insert(11, view("e11(X, Y) :- b2(X, c1), b3(Y, c2, c6)."));
        e.insert(12, view("e12(X, Y) :- b3(X, c2, Y)."));
        e.insert(13, view("e13(X, Y, Z) :- b3(X, Y, Z)."));
        e
    }

    #[test]
    fn paper_example_finds_e12_and_e13_for_b3_part() {
        // Query d2(X, c6) = b2(X, Z) & b3(Z, c2, c6): "the CMS will
        // identify that either E12 or E13 can be used to compute the
        // b3(X, c2, Y) part of the query".
        let engine = paper_cache();
        let q = parse_rule("d2(X) :- b2(X, Z), b3(Z, c2, c6).").unwrap();
        let uses = engine.find_relevant(&q, &mut 0);
        let b3_uses: Vec<_> = uses
            .iter()
            .filter(|u| u.component.len() == 1 && u.component.start == 1)
            .map(|u| u.element)
            .collect();
        assert!(b3_uses.contains(&12), "E12 must be relevant: {uses:?}");
        assert!(b3_uses.contains(&13), "E13 must be relevant: {uses:?}");
        assert!(!b3_uses.contains(&11), "E11 joined b2 in; too restricted");
    }

    #[test]
    fn e12_residual_is_single_selection() {
        let engine = paper_cache();
        let q = parse_rule("d2(X) :- b2(X, Z), b3(Z, c2, c6).").unwrap();
        let uses = engine.find_relevant(&q, &mut 0);
        let e12 = uses
            .iter()
            .find(|u| u.element == 12 && u.component.start == 1)
            .unwrap();
        // E12 already pins c2; only the c6 selection remains.
        assert_eq!(e12.derivation.filters.len(), 1);
        let e13 = uses
            .iter()
            .find(|u| u.element == 13 && u.component.start == 1)
            .unwrap();
        assert_eq!(e13.derivation.filters.len(), 2);
    }

    #[test]
    fn whole_query_subsumption() {
        let mut engine = SubsumptionEngine::new();
        engine.insert(1, view("e(X, Z, Y) :- b2(X, Z), b3(Z, c2, Y)."));
        let q = parse_rule("d2(X) :- b2(X, Z), b3(Z, c2, c6).").unwrap();
        let whole = engine.find_whole(&q, &mut 0);
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].0, 1);
        assert!(!whole[0].1.is_exact()); // residual Y = c6
    }

    #[test]
    fn remove_unregisters_from_index() {
        let mut engine = paper_cache();
        assert_eq!(engine.len(), 3);
        engine.remove(12).unwrap();
        assert_eq!(engine.len(), 2);
        let q = parse_rule("q(Z) :- b3(Z, c2, c6).").unwrap();
        let uses = engine.find_relevant(&q, &mut 0);
        assert!(uses.iter().all(|u| u.element != 12));
        assert!(engine.remove(12).is_none());
    }

    #[test]
    fn needed_vars_include_join_variables() {
        // Segment b2(X, Z): Z joins with the b3 atom outside the segment,
        // so an element projecting Z away is unusable for that segment.
        let mut engine = SubsumptionEngine::new();
        engine.insert(1, view("e(X) :- b2(X, Z)."));
        let q = parse_rule("d2(X) :- b2(X, Z), b3(Z, c2, c6).").unwrap();
        let uses = engine.find_relevant(&q, &mut 0);
        assert!(uses.iter().all(|u| u.element != 1));
        // With Z stored it becomes usable.
        engine.insert(2, view("e2(X, Z) :- b2(X, Z)."));
        let uses = engine.find_relevant(&q, &mut 0);
        assert!(uses.iter().any(|u| u.element == 2));
    }

    #[test]
    fn larger_components_come_first() {
        let mut engine = SubsumptionEngine::new();
        engine.insert(1, view("e1(X, Z) :- b2(X, Z)."));
        engine.insert(2, view("e2(X, Z, Y) :- b2(X, Z), b3(Z, c2, Y)."));
        let q = parse_rule("d2(X, Y) :- b2(X, Z), b3(Z, c2, Y).").unwrap();
        let uses = engine.find_relevant(&q, &mut 0);
        assert!(!uses.is_empty());
        // First use covers the whole query (element 2).
        assert_eq!(uses[0].element, 2);
        assert!(uses[0].component.is_whole(2));
    }

    #[test]
    fn index_checks_only_elements_keyed_by_the_query() {
        // Every element mentions parent/2, so a predicate-name index would
        // check all of them; the constant keys narrow it to one.
        let mut engine = SubsumptionEngine::new();
        for k in 0..50 {
            engine.insert(k, view(&format!("e{k}(X) :- parent(c{k}, X).")));
        }
        let q = parse_rule("q(X) :- parent(c7, X).").unwrap();
        let mut checks = 0;
        let uses = engine.find_relevant(&q, &mut checks);
        assert_eq!(checks, 1);
        assert_eq!(uses.len(), 1);
        assert_eq!(uses[0].element, 7);
        let mut checks = 0;
        assert_eq!(engine.find_whole(&q, &mut checks).len(), 1);
        assert_eq!(checks, 1);
        // A constant-free element is filed under its functor and checked
        // for every parent/2 probe.
        engine.insert(50, view("all(X, Y) :- parent(X, Y)."));
        let mut checks = 0;
        assert_eq!(engine.find_whole(&q, &mut checks).len(), 2);
        assert_eq!(checks, 2);
    }

    #[test]
    fn reinserting_an_id_refiles_it() {
        let mut engine = SubsumptionEngine::new();
        engine.insert(1, view("e(X) :- parent(c1, X)."));
        engine.insert(1, view("e(X) :- parent(c2, X)."));
        assert_eq!(engine.len(), 1);
        let q1 = parse_rule("q(X) :- parent(c1, X).").unwrap();
        let mut checks = 0;
        assert!(engine.find_whole(&q1, &mut checks).is_empty());
        assert_eq!(checks, 0);
        let q2 = parse_rule("q(X) :- parent(c2, X).").unwrap();
        assert_eq!(engine.find_whole(&q2, &mut 0).len(), 1);
        engine.remove(1).unwrap();
        assert!(engine.index.is_empty());
    }

    #[test]
    fn empty_engine_finds_nothing() {
        let engine = SubsumptionEngine::new();
        let q = parse_rule("q(X) :- b(X).").unwrap();
        assert!(engine.find_relevant(&q, &mut 0).is_empty());
        assert!(engine.is_empty());
    }
}
