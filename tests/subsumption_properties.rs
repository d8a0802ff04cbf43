//! Property tests pinning the two directions of the subsumption engine:
//!
//! * **Completeness on constructed instances** — any query built by
//!   *instantiating* a cached view's body (constants for variables,
//!   variable merges) must be recognized as subsumed: the paper's whole
//!   reuse story rests on instance queries hitting general cached views
//!   (§5.3.1's `d1/d2/d3` are exactly such instances).
//! * **Index ≡ exhaustive scan** — the constant-keyed index of
//!   [`SubsumptionEngine`] returns exactly what checking every cached
//!   element returns, in the same order, over random caches built by
//!   interleaved inserts and removes.
//! * **Round-trips of the advice notation** — display∘parse is the
//!   identity on the path-expression language (the IE and CMS exchange
//!   this text, §3).

use braid_advice::{parse_path_expr, PathExpr, PatternArg, QueryPattern, RepBound, Repetition};
use braid_caql::{
    parse_rule, ArithExpr, Atom, CmpOp, Comparison, ConjunctiveQuery, Literal, Subst, Term,
};
use braid_subsume::{
    decompose, subsumes, CandidateUse, Component, Derivation, SubsumptionEngine, ViewDef,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---------- subsumption completeness ----------

/// A random conjunctive body over predicates p0..p2 with variables V0..V3.
fn body_strategy() -> impl Strategy<Value = Vec<Atom>> {
    proptest::collection::vec((0..3u8, proptest::collection::vec(0..4u8, 1..3)), 1..4).prop_map(
        |atoms| {
            atoms
                .into_iter()
                .map(|(p, args)| {
                    Atom::new(
                        format!("p{p}"),
                        args.into_iter()
                            .map(|v| Term::var(format!("V{v}")))
                            .collect(),
                    )
                })
                .collect()
        },
    )
}

/// A random instantiation: each variable independently stays itself, maps
/// to another variable (a merge), or becomes a constant.
fn subst_strategy() -> impl Strategy<Value = Subst> {
    proptest::collection::vec(0..9u8, 4).prop_map(|choices| {
        let mut s = Subst::new();
        for (i, c) in choices.into_iter().enumerate() {
            let v = format!("V{i}");
            match c {
                0..=2 => {} // keep the variable
                3..=5 => s.insert(v, Term::var(format!("W{}", c - 3))),
                _ => s.insert(v, Term::val(format!("c{}", c - 6))),
            }
        }
        s
    })
}

proptest! {
    #[test]
    fn constructed_instances_are_always_subsumed(
        body in body_strategy(),
        inst in subst_strategy(),
    ) {
        // Element: stores every variable (maximal-reuse form the CMS uses
        // when caching results).
        let element = ViewDef::over_conjunction(
            "e",
            body.iter().cloned().map(Literal::Atom).collect(),
        )
        .expect("generated bodies have at least one atom");

        // Query: the same body instantiated.
        let q_body: Vec<Literal> = body
            .iter()
            .map(|a| Literal::Atom(inst.apply_atom(a)))
            .collect();
        let mut head_vars: Vec<Term> = Vec::new();
        for l in &q_body {
            if let Literal::Atom(a) = l {
                for v in a.vars() {
                    if !head_vars.iter().any(|t| t.as_var() == Some(v)) {
                        head_vars.push(Term::var(v));
                    }
                }
            }
        }
        let q = ConjunctiveQuery::new(Atom::new("q", head_vars.clone()), q_body);
        let needed: Vec<&str> = head_vars.iter().filter_map(|t| t.as_var()).collect();

        let d = subsumes(&element, &Component::whole(&q), &needed);
        prop_assert!(
            d.is_some(),
            "instance {q} must be derivable from element {element}"
        );
        // Every needed variable is exposed.
        let d = d.expect("checked above");
        for v in needed {
            prop_assert!(d.var_cols.contains_key(v), "missing {v}");
        }
    }

    /// The reverse direction must *fail* when the element is strictly more
    /// restricted than the query (constants in the element where the query
    /// has variables).
    #[test]
    fn restricted_elements_never_subsume_general_queries(
        pred in 0..3u8,
        pos in 0..2usize,
    ) {
        let e = ViewDef::new(
            parse_rule(&format!(
                "e(X) :- p{pred}({}).",
                if pos == 0 { "c9, X" } else { "X, c9" }
            ))
            .unwrap(),
        )
        .unwrap();
        let q = parse_rule(&format!("q(A, B) :- p{pred}(A, B).")).unwrap();
        prop_assert!(subsumes(&e, &Component::whole(&q), &["A", "B"]).is_none());
    }
}

// ---------- indexed relevant-element search ≡ exhaustive scan ----------

/// The constant pool: `1`, `1.0` and `"1"` are three distinct values that
/// must never share an index bucket, nor be told apart wrongly.
fn constant(k: u8) -> Term {
    Term::Const(match k % 5 {
        0 => Value::int(1),
        1 => Value::from(1.0),
        2 => Value::str("1"),
        3 => Value::str("c"),
        _ => Value::int(2),
    })
}

/// A term: one of three variables or a pool constant.
fn term_strategy() -> impl Strategy<Value = Term> {
    (0..8u8).prop_map(|k| {
        if k < 3 {
            Term::var(format!("V{k}"))
        } else {
            constant(k)
        }
    })
}

/// An atom over `p0..p1` with arity 1–3 (so `p0/1` and `p0/2` differ).
/// The vocabulary is small so that elements often overlap.
fn atom_strategy() -> impl Strategy<Value = Atom> {
    prop_oneof![
        (0..2u8, proptest::collection::vec(term_strategy(), 1..3))
            .prop_map(|(p, args)| Atom::new(format!("p{p}"), args)),
        // A constant repeated within one atom.
        (0..2u8, 0..5u8, 0..3u8).prop_map(|(p, k, v)| Atom::new(
            format!("p{p}"),
            vec![constant(k), Term::var(format!("V{v}")), constant(k)],
        )),
        // Constant-free.
        (0..2u8, proptest::collection::vec(0..3u8, 1..3)).prop_map(|(p, vs)| Atom::new(
            format!("p{p}"),
            vs.into_iter().map(|v| Term::var(format!("V{v}"))).collect(),
        )),
    ]
}

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Eq,
    CmpOp::Ne,
];

/// A comparison `V op k` on one of the body's variables (none when the
/// body is ground).
fn comparison_on(body: &[Atom], pick: u8, op: u8, k: i64) -> Option<Literal> {
    let vars: Vec<&str> = body.iter().flat_map(|a| a.vars()).collect();
    let v = vars.get(usize::from(pick) % vars.len().max(1))?;
    Some(Literal::Cmp(Comparison {
        op: CMP_OPS[usize::from(op) % CMP_OPS.len()],
        lhs: ArithExpr::Term(Term::var(*v)),
        rhs: ArithExpr::Term(Term::val(k)),
    }))
}

/// A conjunctive query: 1–3 atoms, an optional comparison, and a head
/// projecting the body variables selected by `mask` (all of them for
/// `mask >= 8`, the most reusable form).
fn cq_strategy(body: impl Strategy<Value = Vec<Atom>>) -> impl Strategy<Value = ConjunctiveQuery> {
    (body, 0..2u8, 0..4u8, 0..6u8, 0..3i64, 0..16u8).prop_map(
        |(atoms, with_cmp, pick, op, k, mask)| {
            let mut head: Vec<Term> = Vec::new();
            for v in atoms.iter().flat_map(|a| a.vars()) {
                let bit = v[1..].parse::<u32>().expect("V<digit>");
                let keep = mask >= 8 || mask & (1 << bit) != 0;
                if keep && !head.iter().any(|t| t.as_var() == Some(v)) {
                    head.push(Term::var(v));
                }
            }
            let mut lits: Vec<Literal> = atoms.iter().cloned().map(Literal::Atom).collect();
            if with_cmp == 1 {
                lits.extend(comparison_on(&atoms, pick, op, k));
            }
            ConjunctiveQuery::new(Atom::new("q", head), lits)
        },
    )
}

fn view_strategy() -> impl Strategy<Value = ViewDef> {
    let random = cq_strategy(proptest::collection::vec(atom_strategy(), 1..4)).boxed();
    // Restricted only by a comparison: constant-free atoms plus a
    // comparison on their first variable.
    let cmp_only = (
        proptest::collection::vec(proptest::collection::vec(0..3u8, 2), 1..3),
        0..6u8,
        0..3i64,
    )
        .prop_map(|(atoms, op, k)| {
            let atoms: Vec<Atom> = atoms
                .into_iter()
                .map(|vs| {
                    Atom::new(
                        "p1",
                        vs.into_iter().map(|v| Term::var(format!("V{v}"))).collect(),
                    )
                })
                .collect();
            let mut lits: Vec<Literal> = atoms.iter().cloned().map(Literal::Atom).collect();
            lits.extend(comparison_on(&atoms, 0, op, k));
            let head = atoms[0].args.clone();
            ConjunctiveQuery::new(Atom::new("e", head), lits)
        });
    prop_oneof![random.clone(), random, cmp_only]
        .prop_map(|q| ViewDef::new(q).expect("heads project body variables"))
}

/// One step of a cache's life.
#[derive(Debug, Clone)]
enum CacheOp {
    Insert(ViewDef),
    /// Remove the live element at this index (mod the live count).
    Remove(usize),
    Probe(ConjunctiveQuery),
    /// Probe a live element's body with its variables instantiated by
    /// pool constants where the choice is < 5.
    ProbeInstance(usize, Vec<u8>),
}

fn cache_op_strategy() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        view_strategy().prop_map(CacheOp::Insert),
        view_strategy().prop_map(CacheOp::Insert),
        (0..64usize).prop_map(CacheOp::Remove),
        cq_strategy(proptest::collection::vec(atom_strategy(), 1..4)).prop_map(CacheOp::Probe),
        (0..64usize, proptest::collection::vec(0..8u8, 3))
            .prop_map(|(i, ks)| CacheOp::ProbeInstance(i, ks)),
    ]
}

/// The reference: every cached element checked against every component.
fn scan_relevant(cache: &BTreeMap<u64, ViewDef>, q: &ConjunctiveQuery) -> Vec<CandidateUse> {
    let mut out = Vec::new();
    for component in decompose(q) {
        let needed = component.needed_vars(q);
        let needed: Vec<&str> = needed.iter().map(String::as_str).collect();
        for (id, def) in cache {
            if let Some(derivation) = subsumes(def, &component, &needed) {
                out.push(CandidateUse {
                    element: *id,
                    component: component.clone(),
                    derivation,
                });
            }
        }
    }
    out
}

fn scan_whole(cache: &BTreeMap<u64, ViewDef>, q: &ConjunctiveQuery) -> Vec<(u64, Derivation)> {
    let component = Component::whole(q);
    let needed: Vec<&str> = q.head.var_set().into_iter().collect();
    cache
        .iter()
        .filter_map(|(id, def)| Some((*id, subsumes(def, &component, &needed)?)))
        .collect()
}

/// Both searches against the scan; returns the whole-query subsumers.
fn assert_index_matches_scan(
    engine: &SubsumptionEngine,
    cache: &BTreeMap<u64, ViewDef>,
    q: &ConjunctiveQuery,
) -> Vec<u64> {
    let mut checks = 0;
    let relevant = engine.find_relevant(q, &mut checks);
    assert_eq!(relevant, scan_relevant(cache, q), "find_relevant on {q}");
    assert!(checks <= cache.len() * decompose(q).len());
    let mut checks = 0;
    let whole = engine.find_whole(q, &mut checks);
    assert_eq!(whole, scan_whole(cache, q), "find_whole on {q}");
    assert!(checks <= cache.len());
    whole.into_iter().map(|(id, _)| id).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn indexed_search_matches_exhaustive_scan(
        ops in proptest::collection::vec(cache_op_strategy(), 1..40),
    ) {
        let mut engine = SubsumptionEngine::new();
        let mut cache: BTreeMap<u64, ViewDef> = BTreeMap::new();
        let mut next_id = 0;
        for op in ops {
            match op {
                CacheOp::Insert(def) => {
                    engine.insert(next_id, def.clone());
                    cache.insert(next_id, def.clone());
                    // A view always subsumes its own definition, so every
                    // insert also guarantees the comparison sees a hit.
                    let found = assert_index_matches_scan(&engine, &cache, def.query());
                    prop_assert!(found.contains(&next_id), "{def} misses itself");
                    next_id += 1;
                }
                CacheOp::Remove(i) => {
                    if let Some(id) = cache.keys().nth(i % cache.len().max(1)).copied() {
                        prop_assert_eq!(engine.remove(id), cache.remove(&id));
                    }
                }
                CacheOp::Probe(q) => {
                    assert_index_matches_scan(&engine, &cache, &q);
                }
                CacheOp::ProbeInstance(i, ks) => {
                    let Some(def) = cache.values().nth(i % cache.len().max(1)) else {
                        continue;
                    };
                    let mut inst = Subst::new();
                    for (v, k) in ks.iter().enumerate() {
                        if *k < 5 {
                            inst.insert(format!("V{v}"), constant(*k));
                        }
                    }
                    let body: Vec<Literal> = def
                        .atoms()
                        .into_iter()
                        .map(|a| Literal::Atom(inst.apply_atom(a)))
                        .collect();
                    let q = ConjunctiveQuery::new(Atom::new("q", Vec::new()), body);
                    assert_index_matches_scan(&engine, &cache, &q);
                }
            }
        }
        prop_assert_eq!(engine.len(), cache.len());
    }
}

#[test]
fn mixed_type_constants_key_distinct_buckets() {
    let mut engine = SubsumptionEngine::new();
    for (id, k) in [(1, 0), (2, 1), (3, 2)] {
        let body = vec![Literal::Atom(Atom::new(
            "p",
            vec![constant(k), Term::var("X")],
        ))];
        engine.insert(id, ViewDef::over_conjunction("e", body).unwrap());
    }
    for (id, k) in [(1, 0), (2, 1), (3, 2)] {
        let q = ConjunctiveQuery::new(
            Atom::new("q", vec![Term::var("Y")]),
            vec![Literal::Atom(Atom::new(
                "p",
                vec![constant(k), Term::var("Y")],
            ))],
        );
        let mut checks = 0;
        let whole = engine.find_whole(&q, &mut checks);
        assert_eq!(checks, 1, "{q} checked only its own bucket");
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].0, id);
    }
}

// ---------- advice notation round-trips ----------

fn pattern_strategy() -> impl Strategy<Value = QueryPattern> {
    (0..6u8, proptest::collection::vec((0..3u8, 0..4u8), 0..3)).prop_map(|(d, args)| {
        QueryPattern::new(
            format!("d{d}"),
            args.into_iter()
                .map(|(kind, v)| match kind {
                    0 => PatternArg::Free(format!("V{v}")),
                    1 => PatternArg::Bound(format!("V{v}")),
                    _ => PatternArg::Const(braid_caql::Value::str(format!("c{v}"))),
                })
                .collect(),
        )
    })
}

fn path_expr_strategy() -> impl Strategy<Value = PathExpr> {
    let leaf = pattern_strategy().prop_map(PathExpr::Pattern);
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            (
                proptest::collection::vec(inner.clone(), 1..3),
                0..2u64,
                prop_oneof![
                    (1..4u64).prop_map(RepBound::Count),
                    (0..3u8).prop_map(|v| RepBound::Card(format!("V{v}"))),
                    Just(RepBound::Unbounded),
                ],
            )
                .prop_map(|(items, lo, hi)| PathExpr::Seq {
                    items,
                    rep: Repetition {
                        lo: RepBound::Count(lo),
                        hi,
                    },
                }),
            (
                proptest::collection::vec(inner, 1..3),
                proptest::option::of(1..3usize),
            )
                .prop_map(|(items, select)| PathExpr::Alt { items, select }),
        ]
    })
}

// ---------- edge cases, checked against the braid-sim reference model ----------
//
// Three corners the instance-subsumption properties above cannot reach:
// views with negated literals (outside the PSJ fragment — they must
// bypass reuse, not corrupt it), comparison ranges that abut without
// overlapping (`Y < s` next to `Y >= s` shares no tuple, so reuse would
// be wrong), and disjunctive remainders (a cached mid-range splits the
// uncovered part of a wider query into two intervals). Each is driven
// through the full system and compared against the naive reference
// evaluator from braid-sim.

use braid::{BraidConfig, BraidSystem, CmsConfig, KnowledgeBase, Strategy as SolveStrategy};
use braid_relational::{Relation, Schema, Tuple, Value};
use braid_remote::Catalog;
use braid_sim::RefModel;

/// `num(x<i>, i)` for i in 0..n — a numeric column for range views.
fn num_catalog(n: i64) -> Catalog {
    let mut r = Relation::new(Schema::of_strs("num", &["x", "y"]));
    for i in 0..n {
        r.insert(Tuple::new(vec![Value::str(format!("x{i}")), Value::int(i)]))
            .expect("arity 2");
    }
    let mut c = Catalog::new();
    c.install(r);
    c
}

fn num_kb(rules: &[String]) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.declare_base("num", 2);
    for r in rules {
        kb.add_program(r).expect("rule parses");
    }
    kb
}

/// A system (subsumption on, the speculative techniques off so metric
/// deltas attribute cleanly) plus the reference model over the same data.
fn system_and_model(n: i64, rules: &[String]) -> (BraidSystem, RefModel) {
    let model = RefModel::new(&num_catalog(n), &num_kb(rules)).expect("model builds");
    let config = BraidConfig::with_cms(
        CmsConfig::braid()
            .with_prefetching(false)
            .with_generalization(false),
    );
    (
        BraidSystem::new(num_catalog(n), num_kb(rules), config),
        model,
    )
}

fn assert_matches_model(sys: &mut BraidSystem, model: &RefModel, query: &str) {
    let got = sys
        .solve_all(query, SolveStrategy::ConjunctionCompiled)
        .expect("system solves");
    let want = model.solve_text(query).expect("model solves");
    assert_eq!(got, want, "`{query}` diverged from the reference model");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Engine level: an element holding `y < split` answers any narrower
    /// upper range, and never the abutting complement `y >= split` —
    /// adjacent intervals share no tuple, so "close" must not count.
    #[test]
    fn abutting_ranges_never_subsume_narrower_ones_always_do(
        split in 1i64..8,
        narrow in 1i64..8,
    ) {
        let element = ViewDef::new(
            parse_rule(&format!("e(X, Y) :- num(X, Y), Y < {split}.")).unwrap(),
        )
        .unwrap();

        let abut = parse_rule(&format!("q(X, Y) :- num(X, Y), Y >= {split}.")).unwrap();
        prop_assert!(
            subsumes(&element, &Component::whole(&abut), &["X", "Y"]).is_none(),
            "abutting range y >= {split} reused an element holding y < {split}"
        );

        let narrower = parse_rule(&format!("q(X, Y) :- num(X, Y), Y < {narrow}.")).unwrap();
        let d = subsumes(&element, &Component::whole(&narrower), &["X", "Y"]);
        if narrow <= split {
            prop_assert!(d.is_some(), "y < {narrow} fits inside y < {split}");
        } else {
            prop_assert!(d.is_none(), "y < {narrow} exceeds the cached y < {split}");
        }
    }

    /// System level: warm `y < split`, then ask the abutting complement
    /// and a contained range. The contained query must be answered from
    /// the cache (no new remote requests); the abutting one must go back
    /// to the remote; and both answers must match the reference model.
    #[test]
    fn abutting_ranges_refetch_and_contained_ranges_reuse(
        split in 2i64..7,
        n in 8i64..14,
    ) {
        let rules = vec![
            format!("lo(X, Y) :- num(X, Y), Y < {split}."),
            format!("sub(X, Y) :- num(X, Y), Y < {}.", split - 1),
            format!("hi(X, Y) :- num(X, Y), Y >= {split}."),
        ];
        let (mut sys, model) = system_and_model(n, &rules);

        assert_matches_model(&mut sys, &model, "?- lo(X, Y).");
        let warmed = sys.metrics().remote.requests;

        assert_matches_model(&mut sys, &model, "?- sub(X, Y).");
        let after_sub = sys.metrics().remote.requests;
        prop_assert_eq!(
            after_sub, warmed,
            "contained range should be a pure cache answer"
        );

        assert_matches_model(&mut sys, &model, "?- hi(X, Y).");
        prop_assert!(
            sys.metrics().remote.requests > after_sub,
            "abutting range cannot be served from the cached interval"
        );
    }

    /// Disjunctive remainder: with a mid-range `lo <= y < hi` cached, a
    /// full scan's uncovered part is `y < lo OR y >= hi` — two disjoint
    /// intervals. Whatever plan the CMS picks (compensate + refetch or
    /// full refetch), the answer must equal the model's.
    #[test]
    fn disjunctive_remainders_stay_correct(
        lo in 1i64..4,
        width in 1i64..4,
        n in 8i64..14,
    ) {
        let hi = lo + width;
        let rules = vec![
            format!("mid(X, Y) :- num(X, Y), Y >= {lo}, Y < {hi}."),
            "all(X, Y) :- num(X, Y).".to_string(),
            format!("rim(X, Y) :- num(X, Y), Y < {lo}."),
        ];
        let (mut sys, model) = system_and_model(n, &rules);

        assert_matches_model(&mut sys, &model, "?- mid(X, Y).");
        // The full scan's remainder around the cached mid-range is
        // disjunctive; then the left rim alone must also stay exact.
        assert_matches_model(&mut sys, &model, "?- all(X, Y).");
        assert_matches_model(&mut sys, &model, "?- rim(X, Y).");
        // And a second pass over everything, now fully warm.
        assert_matches_model(&mut sys, &model, "?- all(X, Y).");
        assert_matches_model(&mut sys, &model, "?- mid(X, Y).");
    }
}

#[test]
fn negated_literal_views_are_rejected_from_reuse_but_answer_correctly() {
    // A body with negation is outside the PSJ fragment: it must never
    // become a reusable view definition ...
    let neg_rule = parse_rule("v(X) :- num(X, Y), not even(Y).").unwrap();
    assert!(
        ViewDef::new(neg_rule).is_err(),
        "negated-literal bodies must not enter the subsumption engine"
    );

    // ... and at system level the negated parts are planned separately
    // (anti-join compensation), so answers must still match the model —
    // cold, warm, and for a subsequent query that could only be answered
    // by (wrongly) reusing the negation-bearing result.
    let mut kb = KnowledgeBase::new();
    kb.declare_base("num", 2);
    kb.declare_base("flag", 1);
    kb.add_program("odd_only(X, Y) :- num(X, Y), not flag(Y).")
        .unwrap();
    kb.add_program("narrow(X, Y) :- num(X, Y), not flag(Y), Y < 4.")
        .unwrap();
    kb.add_program("plain(X, Y) :- num(X, Y), Y < 4.").unwrap();

    let build_catalog = || {
        let mut c = num_catalog(10);
        let mut f = Relation::new(Schema::of_strs("flag", &["y"]));
        for i in (0..10i64).step_by(2) {
            f.insert(Tuple::new(vec![Value::int(i)])).expect("arity 1");
        }
        c.install(f);
        c
    };
    let model = RefModel::new(&build_catalog(), &kb).expect("model builds");
    let config = BraidConfig::with_cms(
        CmsConfig::braid()
            .with_prefetching(false)
            .with_generalization(false),
    );
    let mut sys = BraidSystem::new(build_catalog(), kb, config);

    assert_matches_model(&mut sys, &model, "?- odd_only(X, Y).");
    assert_matches_model(&mut sys, &model, "?- odd_only(X, Y)."); // warm
    assert_matches_model(&mut sys, &model, "?- narrow(X, Y).");
    // `plain` keeps the flagged tuples the negated views filtered out: if
    // either negated result were wrongly reused, these would be missing.
    assert_matches_model(&mut sys, &model, "?- plain(X, Y).");
}

proptest! {
    #[test]
    fn path_expression_display_parse_round_trip(e in path_expr_strategy()) {
        let printed = e.to_string();
        let reparsed = parse_path_expr(&printed)
            .unwrap_or_else(|err| panic!("`{printed}` failed to reparse: {err}"));
        prop_assert_eq!(
            reparsed.to_string(),
            printed,
            "display∘parse must be the identity"
        );
    }

    #[test]
    fn rule_display_parse_round_trip(body in body_strategy()) {
        let vd = ViewDef::over_conjunction(
            "e",
            body.into_iter().map(Literal::Atom).collect(),
        )
        .unwrap();
        let printed = format!("{}.", vd.query());
        let reparsed = parse_rule(&printed).unwrap();
        prop_assert_eq!(reparsed, vd.query().clone());
    }
}
