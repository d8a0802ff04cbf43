//! Query decomposition into conjunctive components.
//!
//! "A subquery `Q_c` of `Q` is any conjunctive portion of `Q`. ... Solving
//! derivability for each possible component of `Q` (and for a |Q|=n, there
//! are n(n+1)/2 components) may not be efficient" (§5.3.2) — the count
//! identifies the components as the *contiguous segments* of the query's
//! relation-occurrence sequence, which is what [`decompose`] enumerates.
//! Comparisons are attached to the smallest segment covering their
//! variables' producing atoms.

use braid_caql::{Atom, Comparison, ConjunctiveQuery, Literal};
use std::collections::BTreeSet;

/// The set of base relations a query's positive body touches — its
/// *footprint*. Subsumption requires a homomorphism from the subsumer's
/// body onto the component's atoms, so a cache element can only subsume
/// (part of) `q` if `footprint(element) ⊆ footprint(q)`. Sharding a cache
/// by footprint therefore routes all candidates for `q` to the shards of
/// `q`'s own relations.
pub fn base_footprint(q: &ConjunctiveQuery) -> BTreeSet<String> {
    q.positive_atoms()
        .into_iter()
        .map(|a| a.pred.clone())
        .collect()
}

/// One conjunctive component of a query: a contiguous run of its relation
/// occurrences plus the comparisons applicable within the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Index of the first atom (into the query's positive-atom sequence).
    pub start: usize,
    /// One past the last atom.
    pub end: usize,
    /// The relation occurrences.
    pub atoms: Vec<Atom>,
    /// Comparisons whose variables are all produced within this component.
    pub cmps: Vec<Comparison>,
}

impl Component {
    /// The whole query as a single component.
    pub fn whole(q: &ConjunctiveQuery) -> Component {
        let atoms: Vec<Atom> = q.positive_atoms().into_iter().cloned().collect();
        let cmps = q
            .body
            .iter()
            .filter_map(|l| match l {
                Literal::Cmp(c) => Some(c.clone()),
                _ => None,
            })
            .collect();
        Component {
            start: 0,
            end: atoms.len(),
            atoms,
            cmps,
        }
    }

    /// Number of relation occurrences.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True when the component has no atoms.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// All variables appearing in the component's atoms.
    pub fn vars(&self) -> BTreeSet<&str> {
        let mut s = BTreeSet::new();
        for a in &self.atoms {
            s.extend(a.var_set());
        }
        s
    }

    /// True when this component covers the entire atom sequence of a query
    /// with `n` atoms.
    pub fn is_whole(&self, n: usize) -> bool {
        self.start == 0 && self.end == n
    }

    /// The variables this component of `q` must expose: the query-head
    /// variables it covers plus the join variables it shares with the
    /// rest of the query (atoms outside the segment and comparisons not
    /// fully inside it).
    pub fn needed_vars(&self, q: &ConjunctiveQuery) -> Vec<String> {
        let mut outside: BTreeSet<&str> = q.head.var_set();
        let atoms = q.positive_atoms();
        if !self.is_whole(atoms.len()) {
            for (i, a) in atoms.iter().enumerate() {
                if i < self.start || i >= self.end {
                    outside.extend(a.var_set());
                }
            }
            for l in &q.body {
                if let Literal::Cmp(c) = l {
                    if !self.cmps.contains(c) {
                        outside.extend(c.lhs.vars());
                        outside.extend(c.rhs.vars());
                    }
                }
            }
        }
        self.vars()
            .intersection(&outside)
            .map(|v| v.to_string())
            .collect()
    }
}

/// Enumerate all contiguous components of `q`, largest first (the planner
/// prefers covering more of the query with one cached element). For a
/// query with `n` relation occurrences this yields `n(n+1)/2` components.
pub fn decompose(q: &ConjunctiveQuery) -> Vec<Component> {
    let atoms: Vec<Atom> = q.positive_atoms().into_iter().cloned().collect();
    let cmps: Vec<Comparison> = q
        .body
        .iter()
        .filter_map(|l| match l {
            Literal::Cmp(c) => Some(c.clone()),
            _ => None,
        })
        .collect();
    let n = atoms.len();
    let mut out = Vec::with_capacity(n * (n + 1) / 2);
    // Lengths from n down to 1.
    for len in (1..=n).rev() {
        for start in 0..=(n - len) {
            let end = start + len;
            let seg = &atoms[start..end];
            let seg_vars: BTreeSet<&str> = seg.iter().flat_map(|a| a.var_set()).collect();
            let seg_cmps: Vec<Comparison> = cmps
                .iter()
                .filter(|c| {
                    let mut vs = c.lhs.vars();
                    vs.extend(c.rhs.vars());
                    !vs.is_empty() && vs.iter().all(|v| seg_vars.contains(v))
                })
                .cloned()
                .collect();
            out.push(Component {
                start,
                end,
                atoms: seg.to_vec(),
                cmps: seg_cmps,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_caql::parse_rule;

    #[test]
    fn counts_match_paper_formula() {
        let q = parse_rule("q(X) :- a(X, Y), b(Y, Z), c(Z, W).").unwrap();
        let comps = decompose(&q);
        assert_eq!(comps.len(), 3 * 4 / 2);
        // Largest first.
        assert_eq!(comps[0].len(), 3);
        assert!(comps[0].is_whole(3));
        assert_eq!(comps.last().unwrap().len(), 1);
    }

    #[test]
    fn comparisons_attach_to_covering_segments() {
        let q = parse_rule("q(X) :- a(X, Y), b(Y, Z), Y > 3, Z < 9.").unwrap();
        let comps = decompose(&q);
        // The whole component gets both comparisons.
        let whole = &comps[0];
        assert_eq!(whole.cmps.len(), 2);
        // The a(X,Y)-only component gets only Y > 3.
        let a_only = comps.iter().find(|c| c.len() == 1 && c.start == 0).unwrap();
        assert_eq!(a_only.cmps.len(), 1);
        assert_eq!(a_only.cmps[0].to_string(), "Y > 3");
        // The b(Y,Z)-only component gets both (Y and Z both occur in b).
        let b_only = comps.iter().find(|c| c.len() == 1 && c.start == 1).unwrap();
        assert_eq!(b_only.cmps.len(), 2);
    }

    #[test]
    fn whole_helper_matches_largest() {
        let q = parse_rule("q(X) :- a(X, Y), b(Y, X).").unwrap();
        let w = Component::whole(&q);
        assert_eq!(w.len(), 2);
        assert_eq!(w.vars().len(), 2);
        assert_eq!(decompose(&q)[0], w);
    }

    #[test]
    fn single_atom_query() {
        let q = parse_rule("q(X) :- a(X).").unwrap();
        let comps = decompose(&q);
        assert_eq!(comps.len(), 1);
    }
}
