//! Exact reproduction of every worked example in the paper (DESIGN.md
//! items X1–X6).
//!
//! Sheth & O'Hare give symbolic examples rather than numeric tables; each
//! test here asserts our system produces *precisely* the paper's artifact.

use braid::{KnowledgeBase, Strategy};
use braid_advice::PathTracker;
use braid_caql::{parse_atom, parse_rule};
use braid_ie::graph::ProblemGraph;
use braid_ie::viewspec::{specify, SpecifyOptions};
use braid_subsume::{decompose, subsumes, Component, SubsumptionEngine, ViewDef};

/// Strip the `_N` rename suffixes the extractor adds to rule-local
/// variables, so output can be compared against the paper's notation.
fn normalize(s: &str) -> String {
    let mut out = String::new();
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '_' && chars.peek().map(|d| d.is_ascii_digit()).unwrap_or(false) {
            while chars.peek().map(|d| d.is_ascii_digit()).unwrap_or(false) {
                chars.next();
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn example1_kb() -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.declare_base("b1", 2);
    kb.declare_base("b2", 2);
    kb.declare_base("b3", 3);
    kb.add_program(
        "k1(X, Y) :- b1(c1, Y), k2(X, Y).\n\
         k2(X, Y) :- b2(X, Z), b3(Z, c2, Y).\n\
         k2(X, Y) :- b3(X, c3, Z), b1(Z, Y).",
    )
    .unwrap();
    kb
}

/// X1 — §4.2.2 Example 1: view specifications.
#[test]
fn x1_example1_view_specifications() {
    let kb = example1_kb();
    let g = ProblemGraph::extract(&kb, &parse_atom("k1(X, Y)").unwrap()).unwrap();
    let spec = specify(&g, SpecifyOptions::default(), 0);
    let rendered: Vec<String> = spec
        .specs
        .iter()
        .map(|v| normalize(&v.to_string()))
        .collect();
    assert_eq!(
        rendered,
        vec![
            "d1(Y^) =def b1(c1, Y^) (R1)",
            "d2(X^, Y?) =def b2(X^, Z) & b3(Z, c2, Y?) (R2)",
            "d3(X^, Y?) =def b3(X^, c3, Z) & b1(Z, Y?) (R3)",
        ]
    );
}

/// X1 — §4.2.2 Example 1: the path expression.
#[test]
fn x1_example1_path_expression() {
    let kb = example1_kb();
    let g = ProblemGraph::extract(&kb, &parse_atom("k1(X, Y)").unwrap()).unwrap();
    let spec = specify(&g, SpecifyOptions::default(), 0);
    let p = braid_ie::pathexpr::create(&g, &kb, &spec);
    assert_eq!(
        p.to_string(),
        "(d1(Y^), (d2(X^, Y?), d3(X^, Y?))<0,|Y|>)<1,1>"
    );
}

/// X2 — §4.2.2 Example 2: guards turn the sequence into an alternation,
/// and "the view specifications for this example would be identical to
/// those of the previous example".
#[test]
fn x2_example2_alternation() {
    let mut kb = KnowledgeBase::new();
    kb.declare_base("b1", 2);
    kb.declare_base("b2", 2);
    kb.declare_base("b3", 3);
    kb.add_program(
        "k1(X, Y) :- b1(c1, Y), k2(X, Y).\n\
         k2(X, Y) :- k3(X), b2(X, Z), b3(Z, c2, Y).\n\
         k2(X, Y) :- k4(X), b3(X, c3, Z), b1(Z, Y).\n\
         k3(c7).\n\
         k4(c8).",
    )
    .unwrap();
    let g = ProblemGraph::extract(&kb, &parse_atom("k1(X, Y)").unwrap()).unwrap();
    let spec = specify(&g, SpecifyOptions::default(), 0);
    // Identical view definitions (modulo the d-numbering order).
    let rendered: Vec<String> = spec
        .specs
        .iter()
        .map(|v| normalize(&v.to_string()))
        .collect();
    assert!(rendered.contains(&"d1(Y^) =def b1(c1, Y^) (R1)".to_string()));
    assert!(rendered.contains(&"d2(X^, Y?) =def b2(X^, Z) & b3(Z, c2, Y?) (R2)".to_string()));
    assert!(rendered.contains(&"d3(X^, Y?) =def b3(X^, c3, Z) & b1(Z, Y?) (R3)".to_string()));
    let p = braid_ie::pathexpr::create(&g, &kb, &spec);
    assert_eq!(
        p.to_string(),
        "(d1(Y^), ([d2(X^, Y?), d3(X^, Y?)])<0,|Y|>)<1,1>"
    );
}

/// X3 — the §4.2.2 tracking excerpt: valid query sequences and the
/// paper's step-by-step predictions.
#[test]
fn x3_tracking_excerpt_predictions() {
    let src = "(d1(X?, Y^), [(d2(Z^, Y?), d3(Z?))<1,1>, (d4(U^, Y?), d5(U?))<1,1>]^1)<0,|X|>";
    let expr = braid_advice::parse_path_expr(src).unwrap();
    // "the following are some valid sequences of CAQL queries":
    for seq in [
        vec!["d1(c0, Y)", "d2(Z, c9)", "d3(c0)"],
        vec![
            "d1(c0, Y)",
            "d4(U, c9)",
            "d1(c0, Y)",
            "d2(Z, c9)",
            "d3(c0)",
            "d1(c0, Y)",
        ],
        vec![
            "d1(c0, Y)",
            "d2(Z, c9)",
            "d3(c0)",
            "d1(c0, Y)",
            "d4(U, c9)",
            "d5(c0)",
        ],
    ] {
        let mut t = PathTracker::new(&expr);
        for q in &seq {
            assert!(t.advance(&parse_atom(q).unwrap()), "{seq:?} stuck at {q}");
        }
    }
    // "After the CMS receives the CAQL query d1 it can predict that the
    // next query (if any) will involve either d2 or d4."
    let mut t = PathTracker::new(&expr);
    t.advance(&parse_atom("d1(c0, Y)").unwrap());
    let p: Vec<&str> = t.predict_next().into_iter().collect();
    assert_eq!(p, vec!["d2", "d4"]);
    // "Assume that the next query involves d2. Now the CMS can predict
    // that the next query will involve d3 or d1."
    t.advance(&parse_atom("d2(Z, c9)").unwrap());
    let p: Vec<&str> = t.predict_next().into_iter().collect();
    assert_eq!(p, vec!["d1", "d3"]);
    // "Thus, d1 will be required for one of the next two queries. If the
    // CMS needs to replace some cache element it is clear that d1 is not
    // the best candidate."
    assert_eq!(t.distance_to("d1"), Some(1));
    t.advance(&parse_atom("d3(c0)").unwrap());
    let p: Vec<&str> = t.predict_next().into_iter().collect();
    assert_eq!(p, vec!["d1"]);
}

/// X4 — §5.3.2's step-1 subsumption examples over b21.
#[test]
fn x4_step1_single_predicate_subsumption() {
    // Q_c1 = b21(X, 2); E1 = b21(X,Y) & b22(Y,Z); E2 = b21(3,Y);
    // E3 = b21(X,2) & b23(2,Z). "Here E1 and E3 will be considered
    // further" at the single-predicate level; E2 is rejected outright.
    let q = Component::whole(&parse_rule("q(X) :- b21(X, 2).").unwrap());
    let single_atom_of = |src: &str, pick: usize| {
        let r = parse_rule(src).unwrap();
        let atom = r.positive_atoms()[pick].clone();
        ViewDef::over_conjunction("e", vec![braid_caql::Literal::Atom(atom)]).unwrap()
    };
    // E1's b21(X,Y) subsumes with unifier (,Y=2) — the paper's notation.
    let e1_b21 = single_atom_of("e1(X, Y, Z) :- b21(X, Y), b22(Y, Z).", 0);
    let d = subsumes(&e1_b21, &q, &["X"]).unwrap();
    assert_eq!(d.filters.len(), 1, "unifier (,Y=2) becomes one selection");
    // E2 = b21(3, Y): rejected.
    let e2 = single_atom_of("e2(Y) :- b21(3, Y).", 0);
    assert!(subsumes(&e2, &q, &["X"]).is_none());
    // E3's b21(X,2) subsumes with the empty unifier (,).
    let e3_b21 = single_atom_of("e3(X, Z) :- b21(X, 2), b23(2, Z).", 0);
    let d = subsumes(&e3_b21, &q, &["X"]).unwrap();
    assert!(d.is_exact(), "unifier (,) means no residual work");
}

/// X4 — §5.3.2's step-2 neighbour check: "E3 will be considered only for
/// Q1b".
#[test]
fn x4_step2_neighbour_check() {
    let e3 = ViewDef::new(parse_rule("e3(X, Z) :- b21(X, 2), b23(2, Z).").unwrap()).unwrap();
    let q1a = Component::whole(&parse_rule("q(X, Y) :- b21(X, 2), b22(2, Y).").unwrap());
    let q1b = Component::whole(&parse_rule("q(X) :- b23(2, 3), b21(X, 2).").unwrap());
    let q1c = Component::whole(&parse_rule("q(Y, Z) :- b21(2, Y), b23(Y, Z).").unwrap());
    assert!(subsumes(&e3, &q1a, &["X"]).is_none(), "wrong neighbour b22");
    assert!(subsumes(&e3, &q1b, &["X"]).is_some(), "Q1b accepted");
    assert!(
        subsumes(&e3, &q1c, &["Y"]).is_none(),
        "Q1c's b21(2,Y) not covered by b21(X,2)"
    );
}

/// X4 — §5.3.2's running example: E12 and E13 are the relevant elements
/// for the b3 part of d2(X, c6).
#[test]
fn x4_relevant_elements_for_d2() {
    let mut engine = SubsumptionEngine::new();
    engine.insert(
        11,
        ViewDef::new(parse_rule("e11(X, Y) :- b2(X, c1), b3(Y, c2, c6).").unwrap()).unwrap(),
    );
    engine.insert(
        12,
        ViewDef::new(parse_rule("e12(X, Y) :- b3(X, c2, Y).").unwrap()).unwrap(),
    );
    engine.insert(
        13,
        ViewDef::new(parse_rule("e13(X, Y, Z) :- b3(X, Y, Z).").unwrap()).unwrap(),
    );
    let q = parse_rule("d2(X) :- b2(X, Z), b3(Z, c2, c6).").unwrap();
    let uses = engine.find_relevant(&q, &mut 0);
    let b3_part: Vec<u64> = uses
        .iter()
        .filter(|u| u.component.len() == 1 && u.component.start == 1)
        .map(|u| u.element)
        .collect();
    assert!(b3_part.contains(&12) && b3_part.contains(&13));
    assert!(!b3_part.contains(&11));
    // Decomposition count: |Q| = 2 atoms ⇒ 2·3/2 = 3 components.
    assert_eq!(decompose(&q).len(), 3);
}

/// X6 — §4.2.1's minimum argument set: the k9 rule yields d(Z, V).
#[test]
fn x6_minimum_argument_set() {
    let mut kb = KnowledgeBase::new();
    kb.declare_base("b1", 2);
    kb.declare_base("b2", 2);
    kb.declare_base("b3", 2);
    kb.declare_base("bk", 2);
    kb.add_program(
        "k9(X, Y) :- k2(X, Z), b1(Z, W), b2(W, U), b3(U, V), k3(V, Y).\n\
         k2(X, Z) :- bk(X, Z).\n\
         k3(V, Y) :- bk(V, Y).",
    )
    .unwrap();
    let g = ProblemGraph::extract(&kb, &parse_atom("k9(X, Y)").unwrap()).unwrap();
    let spec = specify(&g, SpecifyOptions::default(), 0);
    let d = spec.specs.iter().find(|v| v.body.len() == 3).unwrap();
    let head = normalize(&d.head().to_string());
    assert!(head.ends_with("(Z, V)"), "A = (H∪B)∩D gives (Z, V): {head}");
}

/// F3 — the architecture's top-down query rule: the IE reads the cache
/// model and the remote schema *through* the CMS; and end-to-end solving
/// over the Example 1 knowledge base works against real data.
#[test]
fn f3_end_to_end_example1() {
    use braid::{BraidConfig, BraidSystem};
    use braid_relational::{tuple, Relation, Schema};

    let mut db = braid::Catalog::new();
    db.install(
        Relation::from_tuples(
            Schema::of_strs("b1", &["a", "b"]),
            vec![tuple!["c1", "y1"], tuple!["c1", "y2"], tuple!["z9", "y3"]],
        )
        .unwrap(),
    );
    db.install(
        Relation::from_tuples(
            Schema::of_strs("b2", &["a", "b"]),
            vec![tuple!["x1", "m1"], tuple!["x2", "m2"]],
        )
        .unwrap(),
    );
    db.install(
        Relation::from_tuples(
            Schema::of_strs("b3", &["a", "b", "c"]),
            vec![
                tuple!["m1", "c2", "y1"],
                tuple!["m2", "c2", "y2"],
                tuple!["x7", "c3", "c1"],
            ],
        )
        .unwrap(),
    );
    let mut sys = BraidSystem::new(db, example1_kb(), BraidConfig::default());
    // k1(X, Y): Y from b1(c1, Y) ∈ {y1, y2}; k2 via R2: b2(X,Z) & b3(Z,c2,Y)
    // gives (x1,y1), (x2,y2); via R3: b3(X,c3,Z) & b1(Z,Y) gives
    // (x7, y1), (x7, y2) via Z=c1.
    let sols = sys
        .solve_all("?- k1(X, Y).", Strategy::ConjunctionCompiled)
        .unwrap();
    let rendered: Vec<String> = sols.iter().map(|t| t.to_string()).collect();
    assert_eq!(
        rendered,
        vec!["(x1, y1)", "(x2, y2)", "(x7, y1)", "(x7, y2)"]
    );
    // The IE can read the cache model through the CMS (§3).
    assert!(!sys.cms().cache_model().is_empty());
    // ... and the remote schema through the CMS (§3).
    assert_eq!(sys.cms().remote_schema("b3").unwrap().arity(), 3);
}
